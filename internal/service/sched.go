package service

import (
	"fmt"
	"strings"

	"fhs/internal/dag"
	"fhs/internal/metrics"
)

// Cand is one ready task offered to a picker, after the admission
// stages (priority class, fair share) have filtered the queue. The
// core queues interchangeable tasks (same priority, tenant, work and
// descendant row) in FIFO classes and offers only each class's head,
// so Cands arrive in readiness order of the class heads; JobIdx is
// the owning job's admission index. Desc is the task's typed
// descendant row, shared with the job's graph — read-only.
type Cand struct {
	JobIdx int64
	Task   dag.TaskID
	Work   int64
	Desc   []float64
}

// View is the machine state a picker may consult: live queued work per
// pool and the (fixed) pool sizes. Slices are views — read-only.
type View struct {
	QueueWork []int64
	Procs     []int
}

// Picker chooses which candidate a freed α-processor runs. Pick
// returns an index into cands plus the pick's score for the decision
// trace (0 when the policy has no meaningful score). cands is never
// empty, and it holds class heads in readiness order: a policy must
// score a task by its priority, tenant, work and descendant row only,
// and keep the earlier candidate on ties, for the pick to equal one
// over every queued task. Pick must be deterministic: same view and
// candidates, same index.
type Picker interface {
	Name() string
	Pick(v *View, alpha dag.Type, cands []Cand) (int, float64)
}

// NewPicker resolves a registered scheduler name (case-insensitive).
// The empty name selects MQB, the paper's utilization-balancing rule.
func NewPicker(name string) (Picker, error) {
	switch strings.ToLower(name) {
	case "", "mqb":
		return &MQB{}, nil
	case "kgreedy":
		return KGreedy{}, nil
	default:
		return nil, fmt.Errorf("service: unknown scheduler %q (want MQB or KGreedy)", name)
	}
}

// KGreedy is the online FIFO baseline: run the oldest ready candidate.
type KGreedy struct{}

// Name implements Picker.
func (KGreedy) Name() string { return "KGreedy" }

// Pick implements Picker.
func (KGreedy) Pick(*View, dag.Type, []Cand) (int, float64) { return 0, 0 }

// MQB lifts the paper's utilization balancing online: each candidate
// carries its own job's typed descendant values, and the pool runs the
// candidate whose descendant contribution, added to the live queues,
// best balances the sorted x-utilizations (the max-min comparison of
// internal/multi's BalancedMQB — keep the lexicographically greatest
// ascending profile; ties keep the oldest candidate).
type MQB struct {
	cand []float64
	best []float64
}

// Name implements Picker.
func (*MQB) Name() string { return "MQB" }

// Pick implements Picker.
func (m *MQB) Pick(v *View, alpha dag.Type, cands []Cand) (int, float64) {
	k := len(v.Procs)
	if cap(m.cand) < k {
		m.cand = make([]float64, k)
		m.best = make([]float64, k)
	}
	m.cand, m.best = m.cand[:k], m.best[:k]
	best := -1
	var bestVec []float64 // m.best once a candidate holds it
	for i := range cands {
		// The x-utilizations the machine would queue if c ran on
		// alpha now; SortBeats sorts them as far as the rule needs.
		c := &cands[i]
		for a := range m.cand {
			work := float64(v.QueueWork[a]) + c.Desc[a]
			if dag.Type(a) == alpha {
				work -= float64(c.Work)
			}
			m.cand[a] = work / float64(v.Procs[a])
		}
		if metrics.SortBeats(m.cand, bestVec) {
			best = i
			m.best, m.cand = m.cand, m.best
			bestVec = m.best
		}
	}
	return best, m.best[0]
}
