package flex

import (
	"fhs/internal/dag"
	"fhs/internal/metrics"
)

// Greedy is the KGreedy analogue for flexible jobs: a freed processor
// takes the oldest ready task it is allowed to run, regardless of
// whether another pool would run it faster.
type Greedy struct{}

// NewGreedy returns the FIFO policy.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Policy.
func (*Greedy) Name() string { return "FlexGreedy" }

// Prepare implements Policy.
func (*Greedy) Prepare(*Job, []int) error { return nil }

// Pick implements Policy.
func (*Greedy) Pick(st *State, alpha dag.Type) (dag.TaskID, bool) {
	for _, id := range st.Ready() {
		if st.Job().Task(id).Allowed(alpha) {
			return id, true
		}
	}
	return dag.NoTask, false
}

// BestFit prefers tasks for which this pool is their fastest
// admissible type. With no native candidate it falls back to the
// oldest allowed task whose own fastest pool has no idle processor —
// running somewhat slower beats idling, but stealing a task its native
// pool could start right now does not.
type BestFit struct{}

// NewBestFit returns the fastest-type-first policy.
func NewBestFit() *BestFit { return &BestFit{} }

// Name implements Policy.
func (*BestFit) Name() string { return "FlexBestFit" }

// Prepare implements Policy.
func (*BestFit) Prepare(*Job, []int) error { return nil }

// Pick implements Policy.
func (*BestFit) Pick(st *State, alpha dag.Type) (dag.TaskID, bool) {
	fallback := dag.NoTask
	for _, id := range st.Ready() {
		t := st.Job().Task(id)
		if !t.Allowed(alpha) {
			continue
		}
		_, a := t.MinWork()
		if a == alpha {
			return id, true
		}
		if fallback == dag.NoTask && st.Idle(a) == 0 {
			fallback = id
		}
	}
	return fallback, fallback != dag.NoTask
}

// Balance lifts MQB's utilization balancing to flexible jobs: among
// the tasks admissible on the free pool, it prefers the dispatch whose
// typed descendant pressure (computed with minimum works and fastest
// types) added to the per-type queue pressures yields the best sorted
// lexicographic balance — and it penalizes running a task far from its
// fastest type by charging the extra work to the snapshot.
type Balance struct {
	desc [][]float64 // per task, per type: descendant min-work pressure
	cand []float64
	best []float64
}

// NewBalance returns the balance-aware policy.
func NewBalance() *Balance { return &Balance{} }

// Name implements Policy.
func (*Balance) Name() string { return "FlexBalance" }

// Prepare implements Policy: descendant pressure per type, with each
// descendant attributed to its fastest type at its minimum work and
// shared across parents like MQB's recursion.
func (b *Balance) Prepare(j *Job, procs []int) error {
	n := j.NumTasks()
	k := j.K()
	b.desc = make([][]float64, n)
	flat := make([]float64, n*k)
	for i := range b.desc {
		b.desc[i], flat = flat[:k:k], flat[k:]
	}
	topo := j.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		row := b.desc[v]
		for _, u := range j.Children(v) {
			inv := 1 / float64(len(j.Parents(u)))
			childRow := b.desc[u]
			for a := 0; a < k; a++ {
				row[a] += childRow[a] * inv
			}
			w, a := j.Task(u).MinWork()
			row[a] += float64(w) * inv
		}
	}
	b.cand = make([]float64, k)
	b.best = make([]float64, k)
	return nil
}

// Pick implements Policy. Placement is disciplined: native candidates
// (tasks whose fastest type is the free pool) are preferred, ordered
// by balance; only when the pool has no native work does it accept a
// foreign task — idling is worse than running somewhat slower — again
// picking the one whose snapshot balances best.
func (b *Balance) Pick(st *State, alpha dag.Type) (dag.TaskID, bool) {
	j := st.Job()
	k := j.K()
	best := dag.NoTask
	bestNative := false
	var bestVec []float64 // b.best once a candidate holds it
	for _, id := range st.Ready() {
		t := j.Task(id)
		if !t.Allowed(alpha) {
			continue
		}
		minW, minA := t.MinWork()
		native := minA == alpha
		if bestNative && !native {
			continue // never displace a native candidate with a foreign one
		}
		if !native && st.Idle(minA) > 0 {
			continue // its own fastest pool can start it right now
		}
		row := b.desc[id]
		for a := 0; a < k; a++ {
			work := float64(st.QueuePressure(dag.Type(a))) + row[a]
			if dag.Type(a) == minA {
				work -= float64(minW) // the task leaves its pressure queue
			}
			if dag.Type(a) == alpha {
				// Charge the placement cost: running here occupies this
				// pool for the actual (possibly slower) work.
				work += float64(t.Works[alpha] - minW)
			}
			b.cand[a] = work / float64(st.Procs(dag.Type(a)))
		}
		incumbent := bestVec
		if native && !bestNative {
			incumbent = nil // a native candidate displaces a foreign incumbent outright
		}
		if metrics.SortBeats(b.cand, incumbent) {
			best = id
			bestNative = native
			b.best, b.cand = b.cand, b.best
			bestVec = b.best
		}
	}
	return best, best != dag.NoTask
}
