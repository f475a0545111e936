package multi

import (
	"fhs/internal/dag"
	"fhs/internal/metrics"
)

// GlobalGreedy is KGreedy across jobs: a freed processor takes the
// oldest ready task of its type, regardless of owning job. It is the
// fully online baseline.
type GlobalGreedy struct{}

// NewGlobalGreedy returns the global FIFO policy.
func NewGlobalGreedy() *GlobalGreedy { return &GlobalGreedy{} }

// Name implements Policy.
func (*GlobalGreedy) Name() string { return "GlobalGreedy" }

// Prepare implements Policy.
func (*GlobalGreedy) Prepare(*Stream, []int) error { return nil }

// Pick implements Policy.
func (*GlobalGreedy) Pick(st *State, alpha dag.Type) (TaskRef, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return TaskRef{}, false
	}
	return q[0], true
}

// FCFS serves jobs strictly in release order: a pool always runs the
// ready task of the earliest-released unfinished job (FIFO within the
// job). Later jobs only use a pool when earlier jobs have nothing
// ready on it — so short jobs stuck behind a long head-of-line job
// suffer, the classic convoy effect this package's metrics expose.
type FCFS struct{}

// NewFCFS returns the job-FCFS policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Policy.
func (*FCFS) Name() string { return "FCFS" }

// Prepare implements Policy.
func (*FCFS) Prepare(*Stream, []int) error { return nil }

// Pick implements Policy.
func (*FCFS) Pick(st *State, alpha dag.Type) (TaskRef, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return TaskRef{}, false
	}
	best := q[0]
	for _, ref := range q[1:] {
		if ref.Job < best.Job {
			best = ref
		}
	}
	return best, true
}

// SRPT prioritizes the job with the shortest remaining processing
// time (total uncompleted work over all types) — the classic mean-flow
// heuristic lifted to K-DAG streams; FIFO within a job.
type SRPT struct{}

// NewSRPT returns the shortest-remaining-work-first policy.
func NewSRPT() *SRPT { return &SRPT{} }

// Name implements Policy.
func (*SRPT) Name() string { return "SRPT" }

// Prepare implements Policy.
func (*SRPT) Prepare(*Stream, []int) error { return nil }

// Pick implements Policy.
func (s *SRPT) Pick(st *State, alpha dag.Type) (TaskRef, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return TaskRef{}, false
	}
	best := q[0]
	bestRem := jobRemaining(st, best.Job)
	for _, ref := range q[1:] {
		if rem := jobRemaining(st, ref.Job); rem < bestRem || (rem == bestRem && ref.Job < best.Job) {
			best, bestRem = ref, rem
		}
	}
	return best, true
}

func jobRemaining(st *State, job int) int64 {
	var sum int64
	for a := 0; a < st.Stream().K(); a++ {
		sum += st.RemainingWork(job, dag.Type(a))
	}
	return sum
}

// BalancedMQB applies the paper's utilization balancing across the
// merged queues: each task carries the typed descendant values of its
// own job's K-DAG, and a pool runs the ready task whose descendant
// contribution, added to the global queues, best balances the sorted
// x-utilizations. Job boundaries are invisible to the rule — exactly
// the "treat the cluster's pending work as one big K-DAG" view.
type BalancedMQB struct {
	desc [][][]float64 // per job, per task, per type
	cand []float64
	best []float64
}

// NewBalancedMQB returns the cross-job MQB policy.
func NewBalancedMQB() *BalancedMQB { return &BalancedMQB{} }

// Name implements Policy.
func (*BalancedMQB) Name() string { return "BalancedMQB" }

// Prepare implements Policy.
func (b *BalancedMQB) Prepare(s *Stream, procs []int) error {
	b.desc = make([][][]float64, s.NumJobs())
	for j := 0; j < s.NumJobs(); j++ {
		b.desc[j] = s.Job(j).Graph.SharedTypedDescendantValues()
	}
	b.cand = make([]float64, s.K())
	b.best = make([]float64, s.K())
	return nil
}

// Pick implements Policy.
func (b *BalancedMQB) Pick(st *State, alpha dag.Type) (TaskRef, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return TaskRef{}, false
	}
	if len(q) == 1 {
		return q[0], true
	}
	k := st.Stream().K()
	best := TaskRef{Job: -1}
	var bestVec []float64 // b.best once a candidate holds it
	for _, ref := range q {
		g := st.Stream().Job(ref.Job).Graph
		row := b.desc[ref.Job][ref.Task]
		for a := 0; a < k; a++ {
			work := float64(st.QueueWork(dag.Type(a))) + row[a]
			if dag.Type(a) == alpha {
				work -= float64(g.Task(ref.Task).Work)
			}
			b.cand[a] = work / float64(st.Procs(dag.Type(a)))
		}
		if metrics.SortBeats(b.cand, bestVec) {
			best = ref
			b.best, b.cand = b.cand, b.best
			bestVec = b.best
		}
	}
	return best, true
}
