package multi

import (
	"container/heap"
	"fmt"

	"fhs/internal/dag"
	"fhs/internal/obs"
)

// Policy decides which ready task a freed α-processor runs, across all
// released jobs.
type Policy interface {
	Name() string
	// Prepare is called once per (stream, machine) before simulation;
	// offline policies precompute per-job lookahead here.
	Prepare(s *Stream, procs []int) error
	// Pick chooses from st.Ready(alpha), or ok=false to idle.
	Pick(st *State, alpha dag.Type) (TaskRef, bool)
}

// State is the policy-visible view of a running multi-job simulation.
type State struct {
	stream *Stream
	procs  []int

	now    int64
	queues [][]TaskRef // per type, FIFO by readiness
	qwork  []int64     // total remaining work per queue

	remainingTasks []int     // per job: uncompleted task count
	remainingWork  [][]int64 // per job, per type: uncompleted work
	pending        [][]int   // per job, per task: uncompleted parents
	released       []bool
}

// Now returns the simulation clock.
func (st *State) Now() int64 { return st.now }

// Stream returns the workload under execution.
func (st *State) Stream() *Stream { return st.stream }

// Procs returns Pα.
func (st *State) Procs(alpha dag.Type) int { return st.procs[alpha] }

// Ready returns the ready α-tasks across all released jobs, oldest
// first. The slice is a view; do not modify.
func (st *State) Ready(alpha dag.Type) []TaskRef { return st.queues[alpha] }

// QueueWork returns the total work queued on pool alpha.
func (st *State) QueueWork(alpha dag.Type) int64 { return st.qwork[alpha] }

// RemainingWork returns job's uncompleted α-work (queued, running or
// not yet ready).
func (st *State) RemainingWork(job int, alpha dag.Type) int64 {
	return st.remainingWork[job][alpha]
}

// RemainingTasks returns how many of job's tasks are uncompleted.
func (st *State) RemainingTasks(job int) int { return st.remainingTasks[job] }

// Released reports whether job has been released.
func (st *State) Released(job int) bool { return st.released[job] }

type running struct {
	finish int64
	ref    TaskRef
	alpha  dag.Type
}

type runHeap []running

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	if h[i].ref.Job != h[j].ref.Job {
		return h[i].ref.Job < h[j].ref.Job
	}
	return h[i].ref.Task < h[j].ref.Task
}
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(running)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Obs configures observability for one multi-job run. The zero value
// disables both channels at the cost of one pointer test per would-be
// event.
type Obs struct {
	// Tracer receives the run's structured event stream: job releases,
	// task lifecycle (start/finish, tagged with job and task ids), and
	// per-type ready-queue depth and x-utilization rα = lα/Pα sampled
	// at every scheduling step.
	Tracer *obs.Tracer
	// Metrics aggregates engine counters and the flow-time histogram
	// (multi_* names; see DESIGN.md "Observability"). Only order-
	// independent instruments are used, so a registry shared by
	// concurrent runs totals identically for any worker count.
	Metrics *obs.Registry
}

// multiMetrics holds pre-resolved handles, looked up once per run.
type multiMetrics struct {
	released *obs.Counter   // multi_jobs_released_total
	jobs     *obs.Counter   // multi_jobs_completed_total
	tasks    *obs.Counter   // multi_tasks_completed_total
	busy     *obs.Counter   // multi_busy_time_total
	flow     *obs.Histogram // multi_flow_time: per-job completion − release
}

func newMultiMetrics(reg *obs.Registry) multiMetrics {
	if reg == nil {
		return multiMetrics{}
	}
	return multiMetrics{
		released: reg.Counter("multi_jobs_released_total"),
		jobs:     reg.Counter("multi_jobs_completed_total"),
		tasks:    reg.Counter("multi_tasks_completed_total"),
		busy:     reg.Counter("multi_busy_time_total"),
		flow:     reg.Histogram("multi_flow_time"),
	}
}

// Run simulates the stream on the machine under the policy.
func Run(s *Stream, p Policy, procs []int) (Result, error) {
	return RunObserved(s, p, procs, Obs{})
}

// RunObserved is Run with an observability sink attached.
func RunObserved(s *Stream, p Policy, procs []int, ob Obs) (Result, error) {
	if len(procs) != s.K() {
		return Result{}, fmt.Errorf("multi: %d pools for a stream with K=%d", len(procs), s.K())
	}
	for a, n := range procs {
		if n <= 0 {
			return Result{}, fmt.Errorf("multi: pool %d has %d processors, want > 0", a, n)
		}
	}
	if err := p.Prepare(s, procs); err != nil {
		return Result{}, fmt.Errorf("multi: policy %s prepare: %w", p.Name(), err)
	}

	st := &State{
		stream:         s,
		procs:          procs,
		queues:         make([][]TaskRef, s.K()),
		qwork:          make([]int64, s.K()),
		remainingTasks: make([]int, s.NumJobs()),
		remainingWork:  make([][]int64, s.NumJobs()),
		pending:        make([][]int, s.NumJobs()),
		released:       make([]bool, s.NumJobs()),
	}
	totalTasks := 0
	for j := 0; j < s.NumJobs(); j++ {
		g := s.Job(j).Graph
		st.remainingTasks[j] = g.NumTasks()
		totalTasks += g.NumTasks()
		st.remainingWork[j] = make([]int64, s.K())
		for a := 0; a < s.K(); a++ {
			st.remainingWork[j][a] = g.TypedWork(dag.Type(a))
		}
		st.pending[j] = make([]int, g.NumTasks())
		for i := 0; i < g.NumTasks(); i++ {
			st.pending[j][i] = g.NumParents(dag.TaskID(i))
		}
	}

	res := Result{
		Completion: make([]int64, s.NumJobs()),
		BusyTime:   make([]int64, s.K()),
	}
	idle := append([]int(nil), procs...)
	var run runHeap
	nextRelease := 0
	completedTasks := 0

	tr := ob.Tracer
	mets := newMultiMetrics(ob.Metrics)

	release := func(now int64) {
		for nextRelease < s.NumJobs() && s.Job(nextRelease).Release <= now {
			j := nextRelease
			st.released[j] = true
			mets.released.Inc()
			if tr.Enabled() {
				tr.Emit(obs.ReleaseEv(now, int64(j)))
			}
			for _, r := range s.Job(j).Graph.Roots() {
				st.enqueue(TaskRef{Job: j, Task: r})
			}
			nextRelease++
		}
	}
	release(0)

	for completedTasks < totalTasks {
		// Assignment.
		for a := 0; a < s.K(); a++ {
			alpha := dag.Type(a)
			for idle[a] > 0 && len(st.queues[a]) > 0 {
				ref, ok := p.Pick(st, alpha)
				if !ok {
					break
				}
				// Queue membership is checked before ref indexes anything, so
				// a rogue policy's out-of-range pick is an error, not a panic.
				if !st.dequeue(alpha, ref) {
					return res, fmt.Errorf("multi: policy %s picked job %d task %d which is not ready on pool %d", p.Name(), ref.Job, ref.Task, a)
				}
				g := s.Job(ref.Job).Graph
				idle[a]--
				if tr.Enabled() {
					tr.Emit(obs.JobTaskEv(obs.KindStart, st.now, int64(ref.Job), int64(ref.Task), int64(alpha)))
				}
				heap.Push(&run, running{finish: st.now + g.Task(ref.Task).Work, ref: ref, alpha: alpha})
			}
		}
		if tr.Enabled() {
			for a := 0; a < s.K(); a++ {
				tr.Emit(obs.TypeEv(obs.KindQueueDepth, st.now, int64(a), int64(len(st.queues[a])), 0))
				tr.Emit(obs.TypeEv(obs.KindXUtil, st.now, int64(a), int64(procs[a]), float64(st.qwork[a])/float64(procs[a])))
			}
		}
		// Advance: to the next completion, or the next release if the
		// machine is idle waiting for work.
		if run.Len() == 0 {
			if nextRelease >= s.NumJobs() {
				return res, fmt.Errorf("multi: policy %s stalled at t=%d with %d/%d tasks complete", p.Name(), st.now, completedTasks, totalTasks)
			}
			st.now = s.Job(nextRelease).Release
			release(st.now)
			continue
		}
		t := run[0].finish
		// Releases between now and the next completion open new work
		// that may use idle processors.
		if nextRelease < s.NumJobs() && s.Job(nextRelease).Release < t {
			st.now = s.Job(nextRelease).Release
			release(st.now)
			continue
		}
		st.now = t
		for run.Len() > 0 && run[0].finish == t {
			rt := heap.Pop(&run).(running)
			g := s.Job(rt.ref.Job).Graph
			w := g.Task(rt.ref.Task).Work
			res.BusyTime[rt.alpha] += w
			st.remainingWork[rt.ref.Job][rt.alpha] -= w
			st.remainingTasks[rt.ref.Job]--
			completedTasks++
			idle[rt.alpha]++
			mets.tasks.Inc()
			mets.busy.Add(w)
			if tr.Enabled() {
				tr.Emit(obs.JobTaskEv(obs.KindFinish, t, int64(rt.ref.Job), int64(rt.ref.Task), int64(rt.alpha)))
			}
			if st.remainingTasks[rt.ref.Job] == 0 {
				res.Completion[rt.ref.Job] = t
				mets.jobs.Inc()
				mets.flow.Observe(t - s.Job(rt.ref.Job).Release)
			}
			for _, c := range g.Children(rt.ref.Task) {
				st.pending[rt.ref.Job][c]--
				if st.pending[rt.ref.Job][c] == 0 {
					st.enqueue(TaskRef{Job: rt.ref.Job, Task: c})
				}
			}
		}
		release(st.now)
	}
	res.Makespan = st.now
	return res, nil
}

func (st *State) enqueue(ref TaskRef) {
	g := st.stream.Job(ref.Job).Graph
	alpha := g.Task(ref.Task).Type
	st.queues[alpha] = append(st.queues[alpha], ref)
	st.qwork[alpha] += g.Task(ref.Task).Work
}

func (st *State) dequeue(alpha dag.Type, ref TaskRef) bool {
	q := st.queues[alpha]
	for i, r := range q {
		if r == ref {
			copy(q[i:], q[i+1:])
			st.queues[alpha] = q[:len(q)-1]
			st.qwork[alpha] -= st.stream.Job(ref.Job).Graph.Task(ref.Task).Work
			return true
		}
	}
	return false
}
