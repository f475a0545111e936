package core

import (
	"fmt"
	"math"
	"math/rand"

	"fhs/internal/dag"
	"fhs/internal/metrics"
	"fhs/internal/obs"
	"fhs/internal/sim"
)

// Lookahead selects how much of the K-DAG's future MQB may consult
// when estimating descendant values (Section V-G, "partial
// information").
type Lookahead int

const (
	// LookaheadAll uses the full recursive descendant values (MQB+All,
	// the algorithm of Section IV-A).
	LookaheadAll Lookahead = iota
	// LookaheadOneStep restricts descendant values to immediate
	// children (MQB+1Step).
	LookaheadOneStep
)

func (l Lookahead) String() string {
	if l == LookaheadOneStep {
		return "1Step"
	}
	return "All"
}

// Info selects the precision of MQB's descendant estimates
// (Section V-G, "imprecise information").
type Info int

const (
	// InfoPrecise uses exact descendant values.
	InfoPrecise Info = iota
	// InfoExp replaces each descendant value with an exponentially
	// distributed random value whose mean is the true value (MQB+Exp).
	InfoExp
	// InfoNoise multiplies each descendant value by Uniform(0.5, 1.5)
	// and adds Uniform(0, averageTaskWork) (MQB+Noise).
	InfoNoise
)

func (i Info) String() string {
	switch i {
	case InfoExp:
		return "Exp"
	case InfoNoise:
		return "Noise"
	default:
		return "Pre"
	}
}

// Balance selects how MQB compares two candidate queue snapshots.
// The paper's rule is BalanceLex; the alternatives exist for ablation
// studies of that design choice (see bench_test.go).
type Balance int

const (
	// BalanceLex is the paper's rule: sort the x-utilizations rα
	// ascending and compare lexicographically, larger first-difference
	// wins. Raising the smallest queue dominates; ties cascade to the
	// next-smallest.
	BalanceLex Balance = iota
	// BalanceMinOnly compares only the smallest x-utilization — the
	// ablated rule without the lexicographic cascade.
	BalanceMinOnly
	// BalanceSum compares the total queued work Σ rα — a rule that
	// measures activation volume but ignores balance entirely.
	BalanceSum
)

func (b Balance) String() string {
	switch b {
	case BalanceMinOnly:
		return "MinOnly"
	case BalanceSum:
		return "Sum"
	default:
		return "Lex"
	}
}

// MQBOptions configures an MQB instance. The zero value is the paper's
// full-information algorithm (MQB+All+Pre).
type MQBOptions struct {
	Lookahead Lookahead
	Info      Info
	// Balance selects the snapshot comparison rule; the zero value is
	// the paper's lexicographic rule.
	Balance Balance
	// Seed drives the Exp/Noise perturbations; ignored for InfoPrecise.
	Seed int64
}

// MQB is the Multi-Queue Balancing algorithm (Section IV-A), the
// paper's primary contribution. It transforms makespan minimization
// into utilization balancing: when more than Pα α-tasks are ready, it
// runs the task whose typed descendant values, added to the per-type
// ready queues, yield the best balance — where balance compares the
// vectors of x-utilizations rα = lα/Pα sorted ascending, lexicographically
// (raising the smallest queue first, since the shortest queue is the
// likely utilization bottleneck).
type MQB struct {
	opts MQBOptions
	rng  *rand.Rand

	// tr streams contested pick decisions when the run is traced
	// (sim.Config.Obs); nil outside traced runs, costing one branch
	// per Pick.
	tr *obs.Tracer

	// desc holds per-task, per-type descendant estimates. With precise
	// information it aliases the graph's shared memoized slices (never
	// written); the randomized information models perturb a private
	// copy.
	desc [][]float64

	// Scratch buffers reused across Pick calls to stay allocation-free
	// on the hot path: candidate/incumbent balance vectors plus the
	// per-call hoisted queue loads and pool sizes.
	cand, best  []float64
	base, procs []float64
}

// NewMQB returns a Multi-Queue Balancing scheduler with the given
// information model.
func NewMQB(opts MQBOptions) *MQB {
	m := &MQB{opts: opts}
	if opts.Info != InfoPrecise {
		m.rng = newRand(opts.Seed)
	}
	return m
}

// Name implements sim.Scheduler. The full-information variant is
// plain "MQB"; approximated-information variants carry the paper's
// Figure 8 labels, e.g. "MQB+1Step+Noise"; ablated balance rules get a
// "/MinOnly" or "/Sum" suffix.
func (m *MQB) Name() string {
	name := "MQB"
	if m.opts.Lookahead != LookaheadAll || m.opts.Info != InfoPrecise {
		name = fmt.Sprintf("MQB+%s+%s", m.opts.Lookahead, m.opts.Info)
	}
	if m.opts.Balance != BalanceLex {
		name += "/" + m.opts.Balance.String()
	}
	return name
}

// Prepare implements sim.Scheduler: fetch the graph's memoized
// descendant values at the configured lookahead — jobs are reused
// across schedulers and runs, so the reverse-topological pass happens
// once per (graph, lookahead), not once per Prepare — then perturb a
// private copy per the information model. A randomized MQB reused
// across jobs draws fresh noise every Prepare.
func (m *MQB) Prepare(g *dag.Graph, cfg sim.Config) error {
	m.tr = cfg.Obs
	var src [][]float64
	if m.opts.Lookahead == LookaheadOneStep {
		src = g.SharedOneStepTypedDescendantValues()
	} else {
		src = g.SharedTypedDescendantValues()
	}
	switch m.opts.Info {
	case InfoPrecise:
		// Exact values: read the shared slices directly. Pick never
		// writes through m.desc, which keeps the graph's cache intact.
		m.desc = src
	case InfoExp:
		m.desc = copyRows(src, g.K())
		for _, row := range m.desc {
			for a, v := range row {
				if v > 0 {
					row[a] = m.rng.ExpFloat64() * v
				}
			}
		}
	case InfoNoise:
		m.desc = copyRows(src, g.K())
		avgWork := 0.0
		if n := g.NumTasks(); n > 0 {
			avgWork = float64(g.TotalWork()) / float64(n)
		}
		for _, row := range m.desc {
			for a, v := range row {
				mult := 0.5 + m.rng.Float64() // Uniform(0.5, 1.5)
				add := m.rng.Float64() * avgWork
				row[a] = v*mult + add
			}
		}
	default:
		return fmt.Errorf("core: unknown MQB info model %d", m.opts.Info)
	}
	k := g.K()
	m.cand = make([]float64, k)
	m.best = make([]float64, k)
	m.base = make([]float64, k)
	m.procs = make([]float64, k)
	return nil
}

// copyRows clones a [task][type] table into fresh flat storage, so
// perturbing information models never touch the graph's shared cache.
func copyRows(src [][]float64, k int) [][]float64 {
	d := make([][]float64, len(src))
	flat := make([]float64, len(src)*k)
	for i, row := range src {
		d[i], flat = flat[:k:k], flat[k:]
		copy(d[i], row)
	}
	return d
}

// Pick implements sim.Scheduler. For each candidate ready α-task v it
// forms the hypothetical queue snapshot where v has left the α-queue
// (removing its remaining work) and v's descendant estimates have been
// added to every queue, and keeps the candidate whose snapshot has the
// best balance. Ties keep the earliest-ready candidate.
//
// Between candidates only the α-queue term and the candidate's
// descendant row change, so the queue loads and pool sizes are hoisted
// out of the candidate loop, and the paper's lexicographic rule is
// evaluated by metrics.SortBeats — an incremental selection sort that
// exits at the first position deciding the comparison instead of
// fully sorting every snapshot. The decision sequence is bit-identical
// to the straightforward sort-then-LexLess formulation (asserted by
// the differential test in mqb_equiv_test.go).
func (m *MQB) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	if len(q) == 1 {
		return q[0], true
	}
	k := st.K()
	base, procs := m.base[:k], m.procs[:k]
	for a := 0; a < k; a++ {
		base[a] = float64(st.QueueWork(dag.Type(a)))
		procs[a] = float64(st.Procs(dag.Type(a)))
	}
	best := dag.NoTask
	var bestScore float64
	var bestVec []float64 // m.best once a candidate holds it (BalanceLex)
	for _, id := range q {
		row := m.desc[id]
		rem := float64(st.Remaining(id))
		for a := 0; a < k; a++ {
			work := base[a] + row[a]
			if dag.Type(a) == alpha {
				work -= rem
			}
			// A fully crashed pool (fault timelines can drive Pα(t) to 0)
			// has infinite x-utilization for any pending work, not NaN.
			if procs[a] > 0 {
				m.cand[a] = work / procs[a]
			} else if work > 0 {
				m.cand[a] = math.Inf(1)
			} else {
				m.cand[a] = 0
			}
		}
		switch m.opts.Balance {
		case BalanceLex:
			if metrics.SortBeats(m.cand, bestVec) {
				best = id
				m.best, m.cand = m.cand, m.best
				bestVec = m.best
			}
		case BalanceMinOnly:
			score := m.cand[0]
			for _, v := range m.cand[1:] {
				if v < score {
					score = v
				}
			}
			if best == dag.NoTask || score > bestScore {
				best, bestScore = id, score
			}
		case BalanceSum:
			var score float64
			for _, v := range m.cand {
				score += v
			}
			if best == dag.NoTask || score > bestScore {
				best, bestScore = id, score
			}
		}
	}
	if m.tr.Enabled() {
		// A contested pick: record which task won and the smallest
		// x-utilization of its winning snapshot (the head of the
		// lexicographic comparison) — the quantity whose flip explains
		// why MQB changed its mind between steps. For the ablated
		// rules the recorded score is their scalar objective.
		score := bestScore
		if m.opts.Balance == BalanceLex {
			score = m.best[0]
		}
		m.tr.Emit(obs.DecisionEv(st.Now(), int64(best), int64(alpha), int64(len(q)), finiteScore(score)))
	}
	return best, true
}

// finiteScore clamps a balance score into the finite range the event
// schema requires (a fully crashed pool scores +Inf).
func finiteScore(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}
