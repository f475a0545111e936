package flex

import (
	"container/heap"
	"fmt"

	"fhs/internal/dag"
)

// Policy decides which ready task a freed α-processor should run.
// Implementations must return a ready task admissible on alpha, or
// ok=false to leave the processor idle this round.
type Policy interface {
	Name() string
	// Prepare is called once per (job, machine) before simulation.
	Prepare(j *Job, procs []int) error
	// Pick chooses from st.Ready() a task with Allowed(alpha).
	Pick(st *State, alpha dag.Type) (dag.TaskID, bool)
}

// State is the policy-visible view of a running flexible simulation.
type State struct {
	job   *Job
	procs []int

	now            int64
	ready          []dag.TaskID // FIFO by readiness
	pendingParents []int
	completed      []bool
	nCompleted     int

	// queuePressure[α] is the total minimum work of ready tasks whose
	// fastest type is α — the flexible analogue of MQB's lα.
	queuePressure []int64

	idle []int // idle processors per pool, updated by the engine
}

// Now returns the simulation clock.
func (st *State) Now() int64 { return st.now }

// Job returns the job under execution.
func (st *State) Job() *Job { return st.job }

// Procs returns Pα.
func (st *State) Procs(alpha dag.Type) int { return st.procs[alpha] }

// Ready returns the ready tasks in first-ready order (all types mixed;
// flexible tasks have no single home queue).
func (st *State) Ready() []dag.TaskID { return st.ready }

// QueuePressure returns the total minimum work of ready tasks whose
// fastest type is alpha.
func (st *State) QueuePressure(alpha dag.Type) int64 { return st.queuePressure[alpha] }

// Idle returns how many alpha-processors are currently unassigned.
// Policies use it to avoid grabbing a foreign task whose own fastest
// pool could run it right now.
func (st *State) Idle(alpha dag.Type) int { return st.idle[alpha] }

// Result reports a finished flexible simulation.
type Result struct {
	CompletionTime int64
	// BusyTime[α] is processor-time spent on pool α; with flexible
	// placement it depends on the policy's choices.
	BusyTime []int64
	// Placed[α] counts tasks the policy placed on pool α.
	Placed []int
}

type flexRunning struct {
	finish int64
	id     dag.TaskID
	alpha  dag.Type
}

type flexHeap []flexRunning

func (h flexHeap) Len() int { return len(h) }
func (h flexHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].id < h[j].id
}
func (h flexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *flexHeap) Push(x interface{}) { *h = append(*h, x.(flexRunning)) }
func (h *flexHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Run simulates the flexible job non-preemptively under the policy.
func Run(j *Job, p Policy, procs []int) (Result, error) {
	if len(procs) != j.K() {
		return Result{}, fmt.Errorf("flex: %d pools for a job with K=%d", len(procs), j.K())
	}
	for a, n := range procs {
		if n <= 0 {
			return Result{}, fmt.Errorf("flex: pool %d has %d processors, want > 0", a, n)
		}
	}
	if err := p.Prepare(j, procs); err != nil {
		return Result{}, fmt.Errorf("flex: policy %s prepare: %w", p.Name(), err)
	}

	st := &State{
		job:            j,
		procs:          procs,
		pendingParents: make([]int, j.NumTasks()),
		completed:      make([]bool, j.NumTasks()),
		queuePressure:  make([]int64, j.K()),
	}
	for i := 0; i < j.NumTasks(); i++ {
		st.pendingParents[i] = len(j.Parents(dag.TaskID(i)))
	}
	for _, r := range j.Roots() {
		st.enqueue(r)
	}

	res := Result{BusyTime: make([]int64, j.K()), Placed: make([]int, j.K())}
	idle := append([]int(nil), procs...)
	st.idle = idle
	var running flexHeap

	for st.nCompleted < j.NumTasks() {
		// Assignment sweeps repeat until no pool accepts anything more:
		// a pool may decline a foreign task while its native pool still
		// has idle capacity, and only a later sweep reveals whether that
		// capacity was consumed by other work.
		for progress := true; progress; {
			progress = false
			for a := 0; a < j.K(); a++ {
				alpha := dag.Type(a)
				for idle[a] > 0 && len(st.ready) > 0 {
					id, ok := p.Pick(st, alpha)
					if !ok {
						break
					}
					if id < 0 || int(id) >= j.NumTasks() || !j.Task(id).Allowed(alpha) || !st.dequeue(id) {
						return res, fmt.Errorf("flex: policy %s picked task %d which is not ready/admissible on pool %d", p.Name(), id, a)
					}
					w := j.Task(id).Works[alpha]
					idle[a]--
					res.Placed[a]++
					res.BusyTime[a] += w
					progress = true
					heap.Push(&running, flexRunning{finish: st.now + w, id: id, alpha: alpha})
				}
			}
		}
		if running.Len() == 0 {
			return res, fmt.Errorf("flex: policy %s stalled at t=%d with %d/%d tasks complete", p.Name(), st.now, st.nCompleted, j.NumTasks())
		}
		t := running[0].finish
		st.now = t
		for running.Len() > 0 && running[0].finish == t {
			rt := heap.Pop(&running).(flexRunning)
			idle[rt.alpha]++
			st.complete(rt.id)
		}
	}
	res.CompletionTime = st.now
	return res, nil
}

func (st *State) enqueue(id dag.TaskID) {
	st.ready = append(st.ready, id)
	w, a := st.job.Task(id).MinWork()
	st.queuePressure[a] += w
}

func (st *State) dequeue(id dag.TaskID) bool {
	for i, qid := range st.ready {
		if qid == id {
			copy(st.ready[i:], st.ready[i+1:])
			st.ready = st.ready[:len(st.ready)-1]
			w, a := st.job.Task(id).MinWork()
			st.queuePressure[a] -= w
			return true
		}
	}
	return false
}

func (st *State) complete(id dag.TaskID) {
	st.completed[id] = true
	st.nCompleted++
	for _, c := range st.job.Children(id) {
		st.pendingParents[c]--
		if st.pendingParents[c] == 0 {
			st.enqueue(c)
		}
	}
}
