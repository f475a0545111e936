package core

import (
	"math/rand"
	"sort"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/fault"
	"fhs/internal/metrics"
	"fhs/internal/sim"
	_ "fhs/internal/verify" // register the Paranoid auditor
	"fhs/internal/workload"
)

// refMQB is the pre-optimization reference formulation of MQB's Pick:
// re-read the queue state per candidate, build the full snapshot, sort
// it with the stdlib and compare via metrics.LexLess. The optimized
// Pick (hoisted state, incremental early-exit selection sort, shared
// descendant memo) must make bit-identical decisions — this is the
// schedule-equivalence guard for the hot-path optimization.
type refMQB struct {
	opts MQBOptions
	desc [][]float64
	cand []float64
	best []float64
}

func (*refMQB) Name() string { return "refMQB" }

func (m *refMQB) Prepare(g *dag.Graph, _ sim.Config) error {
	// Deliberately bypass the shared memo: recompute from scratch, so
	// the test also cross-checks the cache against a fresh pass.
	if m.opts.Lookahead == LookaheadOneStep {
		m.desc = dag.OneStepTypedDescendantValues(g)
	} else {
		m.desc = dag.TypedDescendantValues(g)
	}
	m.cand = make([]float64, g.K())
	m.best = make([]float64, g.K())
	return nil
}

func (m *refMQB) Pick(st *sim.State, alpha dag.Type) (dag.TaskID, bool) {
	q := st.Ready(alpha)
	if len(q) == 0 {
		return dag.NoTask, false
	}
	if len(q) == 1 {
		return q[0], true
	}
	k := st.K()
	best := dag.NoTask
	for _, id := range q {
		row := m.desc[id]
		for a := 0; a < k; a++ {
			work := float64(st.QueueWork(dag.Type(a))) + row[a]
			if dag.Type(a) == alpha {
				work -= float64(st.Remaining(id))
			}
			if procs := st.Procs(dag.Type(a)); procs > 0 {
				m.cand[a] = work / float64(procs)
			} else if work > 0 {
				m.cand[a] = inf()
			} else {
				m.cand[a] = 0
			}
		}
		sort.Float64s(m.cand)
		if best == dag.NoTask || metrics.LexLess(m.best, m.cand) {
			best = id
			m.best, m.cand = m.cand, m.best
		}
	}
	return best, true
}

func inf() float64 { return 1.0 / zero }

var zero float64 // 0; defeats constant folding complaints

// equivCase is one randomized instance of the differential check.
type equivCase struct {
	g     *dag.Graph
	procs []int
	cfg   sim.Config
}

// drawEquivCases samples graphs across classes, typings, K and both
// execution modes, including fault-timeline machines that drive pool
// capacities to zero (the Inf branch of the snapshot).
func drawEquivCases(t *testing.T, n int, seed int64) []equivCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	classes := []workload.Class{workload.EP, workload.Tree, workload.IR}
	var cases []equivCase
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(5)
		cfg := workload.Default(classes[i%len(classes)], k, workload.Typing(i%2))
		g, err := workload.Generate(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		procs := workload.SmallMachine.Sample(g.K(), rng)
		sc := sim.Config{Procs: procs, Preemptive: i%2 == 1, CollectTrace: true, Paranoid: true}
		if i%3 == 2 {
			fc := fault.Config{MTTF: 120, MTTR: 40, Horizon: 2048, MaxRetries: 80}
			sc.Faults = fc.NewPlan(procs, rng)
		}
		cases = append(cases, equivCase{g: g, procs: procs, cfg: sc})
	}
	return cases
}

// TestMQBPickEquivalence: the optimized Pick and the reference
// formulation produce identical schedules — same event trace, same
// makespan, same decision count — over randomized instances in both
// engine modes, with the verify auditor running inline (Paranoid) over
// the optimized path.
func TestMQBPickEquivalence(t *testing.T) {
	for _, la := range []Lookahead{LookaheadAll, LookaheadOneStep} {
		for _, c := range drawEquivCases(t, 24, int64(42+la)) {
			opt := NewMQB(MQBOptions{Lookahead: la})
			ref := &refMQB{opts: MQBOptions{Lookahead: la}}
			resOpt, errOpt := sim.Run(c.g, opt, c.cfg)
			resRef, errRef := sim.Run(c.g, ref, c.cfg)
			if (errOpt == nil) != (errRef == nil) {
				t.Fatalf("lookahead %v: error divergence: opt=%v ref=%v", la, errOpt, errRef)
			}
			if errOpt != nil {
				continue // both failed identically (e.g. retry budget)
			}
			if resOpt.CompletionTime != resRef.CompletionTime {
				t.Fatalf("lookahead %v: makespan %d (optimized) != %d (reference)",
					la, resOpt.CompletionTime, resRef.CompletionTime)
			}
			if resOpt.Decisions != resRef.Decisions {
				t.Fatalf("lookahead %v: decisions %d != %d", la, resOpt.Decisions, resRef.Decisions)
			}
			if len(resOpt.Trace) != len(resRef.Trace) {
				t.Fatalf("lookahead %v: trace length %d != %d", la, len(resOpt.Trace), len(resRef.Trace))
			}
			for i := range resOpt.Trace {
				if resOpt.Trace[i] != resRef.Trace[i] {
					t.Fatalf("lookahead %v: trace event %d: %+v != %+v",
						la, i, resOpt.Trace[i], resRef.Trace[i])
				}
			}
		}
	}
}

// TestSharedLookaheadsMatchFresh: the graph memo returns exactly what
// a fresh computation returns, and repeated calls return the same
// backing slices (no recompute).
func TestSharedLookaheadsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := workload.Generate(workload.DefaultIR(4, workload.Layered), rng)
	if err != nil {
		t.Fatal(err)
	}
	typed := g.SharedTypedDescendantValues()
	fresh := dag.TypedDescendantValues(g)
	for v := range fresh {
		for a := range fresh[v] {
			if typed[v][a] != fresh[v][a] {
				t.Fatalf("task %d type %d: shared %g != fresh %g", v, a, typed[v][a], fresh[v][a])
			}
		}
	}
	if &g.SharedTypedDescendantValues()[0][0] != &typed[0][0] {
		t.Fatal("second SharedTypedDescendantValues call recomputed")
	}
	one := g.SharedOneStepTypedDescendantValues()
	freshOne := dag.OneStepTypedDescendantValues(g)
	for v := range freshOne {
		for a := range freshOne[v] {
			if one[v][a] != freshOne[v][a] {
				t.Fatalf("one-step task %d type %d: shared %g != fresh %g", v, a, one[v][a], freshOne[v][a])
			}
		}
	}
}

// TestPerturbedInfoDoesNotTouchSharedCache: MQB+Exp/Noise perturb a
// private copy; the graph's memo must stay exact for the next
// scheduler preparing on the same job.
func TestPerturbedInfoDoesNotTouchSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := workload.Generate(workload.DefaultEP(3, workload.Layered), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), g.SharedTypedDescendantValues()[0]...)
	for _, name := range []string{"MQB+All+Exp", "MQB+All+Noise"} {
		s := MustNew(name, Params{Seed: 5})
		if err := s.Prepare(g, sim.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	got := g.SharedTypedDescendantValues()[0]
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("shared cache mutated at type %d: %g != %g", a, got[a], want[a])
		}
	}
}
