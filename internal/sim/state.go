package sim

import (
	"fmt"
	"sort"

	"fhs/internal/dag"
)

// State is the scheduler-visible view of a running simulation. All
// accessors are read-only; mutation happens inside the engine. A State
// is owned by a single simulation and is not safe for concurrent use.
type State struct {
	g   *dag.Graph
	cfg *Config

	now int64

	// queues[α] holds the ready α-tasks ordered by the time they first
	// became ready (FIFO). Preempted tasks keep their original position.
	queues    [][]dag.TaskID
	queueWork []int64 // total remaining work per queue

	// cap[α] is the live pool capacity Pα(t). It equals cfg.Procs
	// except under a fault timeline, where the engine updates it at
	// every capacity breakpoint; schedulers observe it through Procs.
	cap []int

	remaining      []int64 // per-task remaining work
	readySeq       []int64 // per-task sequence number of first readiness
	attempts       []int   // per-task kill/failure re-enqueue count
	pendingParents []int   // per-task uncompleted parent count
	completed      []bool
	nCompleted     int
	seqCounter     int64
}

func newState(g *dag.Graph, cfg *Config) *State {
	n := g.NumTasks()
	st := &State{
		g:              g,
		cfg:            cfg,
		queues:         make([][]dag.TaskID, g.K()),
		queueWork:      make([]int64, g.K()),
		cap:            append([]int(nil), cfg.Procs...),
		remaining:      make([]int64, n),
		readySeq:       make([]int64, n),
		attempts:       make([]int, n),
		pendingParents: make([]int, n),
		completed:      make([]bool, n),
	}
	if cfg.Faults != nil && cfg.Faults.Timeline != nil {
		for a := range st.cap {
			st.cap[a] = cfg.Faults.Timeline.CapAt(dag.Type(a), 0)
		}
	}
	for i := 0; i < n; i++ {
		id := dag.TaskID(i)
		st.remaining[i] = g.Task(id).Work
		st.pendingParents[i] = g.NumParents(id)
		st.readySeq[i] = -1
	}
	for _, r := range g.Roots() {
		st.enqueue(r)
	}
	return st
}

// Graph returns the job being executed. Online schedulers must not
// inspect it beyond K (see the Scheduler contract).
func (st *State) Graph() *dag.Graph { return st.g }

// K returns the number of resource types.
func (st *State) K() int { return st.g.K() }

// Now returns the current simulation time.
func (st *State) Now() int64 { return st.now }

// Procs returns the live pool capacity Pα(t) for the given type. It
// equals the configured pool size except under a fault timeline, where
// crashed processors are excluded — schedulers that balance on Pα
// (MQB's rα = lα/Pα) therefore rebalance automatically as pools
// shrink and recover.
func (st *State) Procs(alpha dag.Type) int { return st.cap[alpha] }

// Ready returns the ready queue for alpha in first-ready (FIFO) order.
// The slice is a view; callers must not modify or retain it.
func (st *State) Ready(alpha dag.Type) []dag.TaskID { return st.queues[alpha] }

// QueueLen returns the number of ready tasks of the given type.
func (st *State) QueueLen(alpha dag.Type) int { return len(st.queues[alpha]) }

// QueueWork returns lα: the total remaining work of ready α-tasks.
// This is the quantity MQB's x-utilization rα = lα/Pα is built from.
func (st *State) QueueWork(alpha dag.Type) int64 { return st.queueWork[alpha] }

// Remaining returns the remaining work of a task (its full work until
// it first executes; 0 once complete).
func (st *State) Remaining(id dag.TaskID) int64 { return st.remaining[id] }

// Executed returns how much of a task's work has been performed.
func (st *State) Executed(id dag.TaskID) int64 {
	return st.g.Task(id).Work - st.remaining[id]
}

// Completed reports whether a task has finished.
func (st *State) Completed(id dag.TaskID) bool { return st.completed[id] }

// NumCompleted returns how many tasks have finished so far.
func (st *State) NumCompleted() int { return st.nCompleted }

// enqueue adds a task to its type's ready queue, assigning a readiness
// sequence number on first entry (re-entries after preemption keep the
// original number so FIFO order is stable across preemptions).
func (st *State) enqueue(id dag.TaskID) {
	if st.readySeq[id] < 0 {
		st.readySeq[id] = st.seqCounter
		st.seqCounter++
	}
	alpha := st.g.Task(id).Type
	st.queues[alpha] = append(st.queues[alpha], id)
	st.queueWork[alpha] += st.remaining[id]
}

// dequeue removes a specific task from alpha's ready queue, returning
// false if it is not queued there (a scheduler contract violation).
// Membership is checked before id is used as an index, so any id a
// scheduler returns — out of range, NoTask, or a task of another type
// — is safe to pass.
func (st *State) dequeue(alpha dag.Type, id dag.TaskID) bool {
	q := st.queues[alpha]
	for i, qid := range q {
		if qid == id {
			copy(q[i:], q[i+1:])
			st.queues[alpha] = q[:len(q)-1]
			st.queueWork[alpha] -= st.remaining[id]
			return true
		}
	}
	return false
}

// retry re-enqueues a task after a crash kill or transient failure,
// charging its retry budget. It errors once the task has been
// re-enqueued more than MaxRetries times.
func (st *State) retry(id dag.TaskID) error {
	st.attempts[id]++
	if max := st.cfg.Faults.MaxRetries; st.attempts[id] > max {
		return fmt.Errorf("sim: task %d exhausted its retry budget (%d) at t=%d", id, max, st.now)
	}
	st.enqueue(id)
	return nil
}

// sortQueues restores first-ready order after preempted tasks are
// re-enqueued (they get appended, possibly out of order).
func (st *State) sortQueues() {
	for alpha := range st.queues {
		q := st.queues[alpha]
		sort.Slice(q, func(i, j int) bool { return st.readySeq[q[i]] < st.readySeq[q[j]] })
	}
}

// complete marks a task finished and enqueues any children whose
// parents are now all complete. It returns the newly readied tasks.
func (st *State) complete(id dag.TaskID, readied []dag.TaskID) []dag.TaskID {
	st.completed[id] = true
	st.nCompleted++
	for _, c := range st.g.Children(id) {
		st.pendingParents[c]--
		if st.pendingParents[c] == 0 {
			st.enqueue(c)
			readied = append(readied, c)
		}
	}
	return readied
}
