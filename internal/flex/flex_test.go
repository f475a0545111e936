package flex

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fhs/internal/dag"
	"fhs/internal/workload"
)

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask([]int64{1}) // wrong length
	if _, err := b.Build(); err == nil {
		t.Error("accepted short work table")
	}
	b = NewBuilder(2)
	b.AddTask([]int64{NoWork, NoWork}) // no admissible type
	if _, err := b.Build(); err == nil {
		t.Error("accepted task with no admissible type")
	}
	b = NewBuilder(2)
	b.AddTask([]int64{0, 1}) // zero work
	if _, err := b.Build(); err == nil {
		t.Error("accepted zero work")
	}
	b = NewBuilder(2)
	x := b.AddTask([]int64{1, NoWork})
	y := b.AddTask([]int64{NoWork, 2})
	b.AddEdge(x, y)
	b.AddEdge(y, x)
	if _, err := b.Build(); err == nil {
		t.Error("accepted cycle")
	}
}

func TestTaskMinWorkAndAllowed(t *testing.T) {
	task := Task{Works: []int64{5, NoWork, 3}}
	w, a := task.MinWork()
	if w != 3 || a != 2 {
		t.Errorf("MinWork = %d,%d want 3,2", w, a)
	}
	if task.Allowed(1) || !task.Allowed(0) || !task.Allowed(2) {
		t.Error("Allowed wrong")
	}
	if task.Allowed(7) {
		t.Error("out-of-range type allowed")
	}
}

func TestJobMetrics(t *testing.T) {
	b := NewBuilder(2)
	x := b.AddTask([]int64{4, 2}) // fastest on type 1
	y := b.AddTask([]int64{3, NoWork})
	b.AddEdge(x, y)
	j := b.MustBuild()
	if j.MinSpan() != 5 { // 2 + 3
		t.Errorf("MinSpan = %d, want 5", j.MinSpan())
	}
	lb, err := j.LowerBound([]int{1, 1}) // max(5, 5/2)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 5 {
		t.Errorf("LowerBound = %g, want 5", lb)
	}
	if _, err := j.LowerBound([]int{1}); err == nil {
		t.Error("accepted wrong pool count")
	}
	if _, err := j.LowerBound([]int{0, 1}); err == nil {
		t.Error("accepted zero pool")
	}
}

func TestPinnedUsesFastestType(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask([]int64{4, 2})
	b.AddTask([]int64{3, NoWork})
	j := b.MustBuild()
	g := j.Pinned()
	if g.Task(0).Type != 1 || g.Task(0).Work != 2 {
		t.Errorf("task 0 pinned to %d/%d, want 1/2", g.Task(0).Type, g.Task(0).Work)
	}
	if g.Task(1).Type != 0 || g.Task(1).Work != 3 {
		t.Errorf("task 1 pinned to %d/%d, want 0/3", g.Task(1).Type, g.Task(1).Work)
	}
}

func TestEngineRunsChain(t *testing.T) {
	b := NewBuilder(2)
	x := b.AddTask([]int64{2, NoWork})
	y := b.AddTask([]int64{NoWork, 3})
	b.AddEdge(x, y)
	j := b.MustBuild()
	for _, p := range []Policy{NewGreedy(), NewBestFit(), NewBalance()} {
		res, err := Run(j, p, []int{1, 1})
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if res.CompletionTime != 5 {
			t.Errorf("%s: completion %d, want 5", p.Name(), res.CompletionTime)
		}
	}
}

func TestFlexibleTaskCanRunAnywhere(t *testing.T) {
	// Two fully flexible unit tasks, pools {1,1}: both run at t=0 on
	// different pools, finishing at 1 — impossible for a rigid job with
	// both tasks on one type.
	b := NewBuilder(2)
	b.AddTask([]int64{1, 1})
	b.AddTask([]int64{1, 1})
	j := b.MustBuild()
	res, err := Run(j, NewGreedy(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 1 {
		t.Errorf("completion = %d, want 1", res.CompletionTime)
	}
	if res.Placed[0] != 1 || res.Placed[1] != 1 {
		t.Errorf("placement = %v, want one per pool", res.Placed)
	}
}

func TestBestFitPrefersHomePool(t *testing.T) {
	// A task fast on pool 1 but admissible on 0, plus a task native to
	// pool 0: BestFit gives pool 0 its native task.
	b := NewBuilder(2)
	fastOn1 := b.AddTask([]int64{9, 2})
	native0 := b.AddTask([]int64{2, NoWork})
	j := b.MustBuild()
	res, err := Run(j, NewBestFit(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 2 {
		t.Errorf("completion = %d, want 2", res.CompletionTime)
	}
	_ = fastOn1
	_ = native0
}

func TestGreedyMayMisplace(t *testing.T) {
	// Same job: FIFO hands the flexible task to pool 0 (it is oldest),
	// occupying for 9 units the only pool the second task can use:
	// completion 9 + 2 = 11 versus BestFit's 2 — a concrete case where
	// naive use of flexibility hurts badly.
	b := NewBuilder(2)
	b.AddTask([]int64{9, 2})
	b.AddTask([]int64{2, NoWork})
	j := b.MustBuild()
	res, err := Run(j, NewGreedy(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime != 11 {
		t.Errorf("completion = %d, want 11 (greedy misplacement)", res.CompletionTime)
	}
}

func TestFromGraphEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.MustGenerate(workload.DefaultEP(3, workload.Layered), rng)
	rigid := FromGraph(g, 0, 1.5, rng)
	for i := 0; i < rigid.NumTasks(); i++ {
		task := rigid.Task(dag.TaskID(i))
		n := 0
		for _, w := range task.Works {
			if w != NoWork {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("flexFrac=0 task %d admissible on %d types", i, n)
		}
		w, a := task.MinWork()
		if w != g.Task(dag.TaskID(i)).Work || a != g.Task(dag.TaskID(i)).Type {
			t.Fatalf("task %d home placement changed", i)
		}
	}
	full := FromGraph(g, 1, 2, rng)
	for i := 0; i < full.NumTasks(); i++ {
		for a, w := range full.Task(dag.TaskID(i)).Works {
			if w == NoWork {
				t.Fatalf("flexFrac=1 task %d not admissible on type %d", i, a)
			}
		}
	}
}

func TestPropertyPoliciesCompleteAndRespectBound(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewGreedy() },
		func() Policy { return NewBestFit() },
		func() Policy { return NewBalance() },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := workload.MustGenerate(workload.DefaultEP(1+rng.Intn(3), workload.Random), rng)
		j := FromGraph(g, rng.Float64(), 1+rng.Float64(), rng)
		procs := make([]int, j.K())
		for i := range procs {
			procs[i] = 1 + rng.Intn(3)
		}
		lb, err := j.LowerBound(procs)
		if err != nil {
			return false
		}
		for _, mk := range policies {
			res, err := Run(j, mk(), procs)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if float64(res.CompletionTime) < lb-1e-9 {
				t.Logf("seed %d: completion %d below bound %g", seed, res.CompletionTime, lb)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestFlexibilityImprovesMakespan(t *testing.T) {
	// Statistical: on layered EP with a skewed machine, full
	// flexibility under the Balance policy beats the rigid pinned
	// schedule under FIFO dispatch on average.
	var rigidSum, flexSum float64
	const n = 20
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		g := workload.MustGenerate(workload.DefaultEP(4, workload.Layered), rng)
		procs := []int{3, 3, 3, 3}
		rigid := FromGraph(g, 0, 1.5, rng)
		flexible := FromGraph(g, 1, 1.5, rng)
		r1, err := Run(rigid, NewGreedy(), procs)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(flexible, NewBalance(), procs)
		if err != nil {
			t.Fatal(err)
		}
		rigidSum += float64(r1.CompletionTime)
		flexSum += float64(r2.CompletionTime)
	}
	if flexSum >= rigidSum {
		t.Errorf("flexibility did not help: flexible mean %.1f >= rigid mean %.1f", flexSum/n, rigidSum/n)
	}
}

func TestStallOnRefusingPolicy(t *testing.T) {
	b := NewBuilder(1)
	b.AddTask([]int64{1})
	j := b.MustBuild()
	bad := policyFunc{name: "refuser", pick: func(*State, dag.Type) (dag.TaskID, bool) { return dag.NoTask, false }}
	if _, err := Run(j, bad, []int{1}); err == nil {
		t.Error("expected stall error")
	}
}

// TestRogueFlexPolicyRejected: a pick that is not ready and admissible
// on the asking pool is the contract-violation error — never an index
// panic, even for ids outside the job.
func TestRogueFlexPolicyRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddTask([]int64{1, NoWork})
	j := b.MustBuild()
	for _, tc := range []struct {
		name string
		pool dag.Type
		pick dag.TaskID
	}{
		{"task on a pool it is not admissible on", 1, 0},
		{"out-of-range task", 0, 9999},
		{"NoTask", 0, dag.NoTask},
	} {
		rogue := policyFunc{name: "rogue", pick: func(_ *State, a dag.Type) (dag.TaskID, bool) {
			return tc.pick, a == tc.pool
		}}
		_, err := Run(j, rogue, []int{1, 1})
		if want := fmt.Sprintf("not ready/admissible on pool %d", tc.pool); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: want contract violation error, got %v", tc.name, err)
		}
	}
}

type policyFunc struct {
	name string
	pick func(*State, dag.Type) (dag.TaskID, bool)
}

func (p policyFunc) Name() string                                  { return p.name }
func (policyFunc) Prepare(*Job, []int) error                       { return nil }
func (p policyFunc) Pick(st *State, a dag.Type) (dag.TaskID, bool) { return p.pick(st, a) }
