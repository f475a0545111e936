package multi

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fhs/internal/dag"
	"fhs/internal/workload"
)

func unitChain(t *testing.T, k int, types ...dag.Type) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder(k)
	prev := dag.NoTask
	for _, tp := range types {
		id := b.AddTask(tp, 1)
		if prev != dag.NoTask {
			b.AddEdge(prev, id)
		}
		prev = id
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewStreamValidation(t *testing.T) {
	if _, err := NewStream(nil); err == nil {
		t.Error("accepted empty stream")
	}
	g2 := unitChain(t, 2, 0)
	g3 := unitChain(t, 3, 0)
	if _, err := NewStream([]JobSpec{{Graph: g2}, {Graph: g3}}); err == nil {
		t.Error("accepted mixed K")
	}
	if _, err := NewStream([]JobSpec{{Graph: nil}}); err == nil {
		t.Error("accepted nil graph")
	}
	if _, err := NewStream([]JobSpec{{Graph: g2, Release: -1}}); err == nil {
		t.Error("accepted negative release")
	}
	if _, err := NewStream([]JobSpec{{Graph: dag.NewBuilder(2).MustBuild()}}); err == nil {
		t.Error("accepted empty job")
	}
}

func TestNewStreamSortsByRelease(t *testing.T) {
	g := unitChain(t, 1, 0)
	s, err := NewStream([]JobSpec{
		{Release: 10, Graph: g},
		{Release: 2, Graph: g},
		{Release: 7, Graph: g},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Job(0).Release != 2 || s.Job(1).Release != 7 || s.Job(2).Release != 10 {
		t.Error("stream not sorted by release")
	}
	if s.TotalTasks() != 3 {
		t.Errorf("TotalTasks = %d", s.TotalTasks())
	}
}

func TestSingleJobMatchesRelease(t *testing.T) {
	g := unitChain(t, 2, 0, 1, 0)
	s, err := NewStream([]JobSpec{{Release: 5, Graph: g}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, NewGlobalGreedy(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 8 { // released at 5, chain of 3 unit tasks
		t.Errorf("completion = %d, want 8", res.Completion[0])
	}
	if res.Flow(s, 0) != 3 {
		t.Errorf("flow = %d, want 3", res.Flow(s, 0))
	}
	if res.Makespan != 8 {
		t.Errorf("makespan = %d, want 8", res.Makespan)
	}
}

func TestReleasesGateExecution(t *testing.T) {
	// Two single-task jobs on one processor, second released at t=10
	// long after the first finishes: the machine must idle in between.
	g := unitChain(t, 1, 0)
	s, err := NewStream([]JobSpec{
		{Release: 0, Graph: g},
		{Release: 10, Graph: g},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, NewGlobalGreedy(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 1 || res.Completion[1] != 11 {
		t.Errorf("completions = %v, want [1 11]", res.Completion)
	}
}

func TestReleaseDuringExecutionInterleaves(t *testing.T) {
	// Job 0: one task of work 10 on pool 0. Job 1: one unit task on
	// pool 1, released at t=3. Pool 1 must pick it up at 3, not wait.
	b := dag.NewBuilder(2)
	b.AddTask(0, 10)
	g0 := b.MustBuild()
	g1 := unitChain(t, 2, 1)
	s, err := NewStream([]JobSpec{
		{Release: 0, Graph: g0},
		{Release: 3, Graph: g1},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, NewGlobalGreedy(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] != 4 {
		t.Errorf("job 1 completed at %d, want 4", res.Completion[1])
	}
	if res.Makespan != 10 {
		t.Errorf("makespan = %d, want 10", res.Makespan)
	}
}

func TestSRPTFavorsShortJob(t *testing.T) {
	// A long job (5 unit tasks, independent) and a short job (1 task),
	// both at t=0, one processor. SRPT finishes the short job first.
	bLong := dag.NewBuilder(1)
	for i := 0; i < 5; i++ {
		bLong.AddTask(0, 1)
	}
	long := bLong.MustBuild()
	short := unitChain(t, 1, 0)
	s, err := NewStream([]JobSpec{
		{Release: 0, Graph: long},
		{Release: 0, Graph: short},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, NewSRPT(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] != 1 {
		t.Errorf("short job completed at %d, want 1 under SRPT", res.Completion[1])
	}
	// FCFS serves the long job first (earlier in release order, ties by
	// index): the short job waits for all five tasks.
	resF, err := Run(s, NewFCFS(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if resF.Completion[1] != 6 {
		t.Errorf("short job completed at %d under FCFS, want 6", resF.Completion[1])
	}
	if resF.MeanFlow(s) <= res.MeanFlow(s) {
		t.Errorf("FCFS mean flow %g should exceed SRPT %g", resF.MeanFlow(s), res.MeanFlow(s))
	}
}

func TestWeightedMeanFlow(t *testing.T) {
	g := unitChain(t, 1, 0)
	s, err := NewStream([]JobSpec{
		{Release: 0, Graph: g, Weight: 3},
		{Release: 0, Graph: g}, // weight defaults to 1
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, NewFCFS(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Flows are 1 and 2 in some order; job 0 (weight 3) runs first.
	want := (3.0*1 + 1.0*2) / 4.0
	if got := res.WeightedMeanFlow(s); got != want {
		t.Errorf("weighted mean flow = %g, want %g", got, want)
	}
	if res.MaxFlow(s) != 2 {
		t.Errorf("max flow = %d, want 2", res.MaxFlow(s))
	}
}

func TestRunValidation(t *testing.T) {
	g := unitChain(t, 2, 0)
	s, err := NewStream([]JobSpec{{Graph: g}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, NewGlobalGreedy(), []int{1}); err == nil {
		t.Error("accepted wrong pool count")
	}
	if _, err := Run(s, NewGlobalGreedy(), []int{1, 0}); err == nil {
		t.Error("accepted zero pool")
	}
}

// fixedPolicy answers every Pick with the same reference, ready or
// not: a caller-supplied policy that breaks the Pick contract.
type fixedPolicy TaskRef

func (fixedPolicy) Name() string                 { return "fixed" }
func (fixedPolicy) Prepare(*Stream, []int) error { return nil }
func (f fixedPolicy) Pick(*State, dag.Type) (TaskRef, bool) {
	return TaskRef(f), true
}

// TestRoguePolicyRejected: the engine turns a pick that is not ready
// on the asking pool into the contract-violation error — never an
// index panic, even for references outside the stream.
func TestRoguePolicyRejected(t *testing.T) {
	// Two single-task jobs released together: job 0 on pool 0, job 1
	// on pool 1.
	s, err := NewStream([]JobSpec{{Graph: unitChain(t, 2, 0)}, {Graph: unitChain(t, 2, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pick TaskRef
	}{
		{"out-of-range job", TaskRef{Job: 99}},
		{"out-of-range task", TaskRef{Job: 0, Task: 9999}},
		{"NoTask", TaskRef{Job: 0, Task: dag.NoTask}},
		{"task on the wrong pool", TaskRef{Job: 1, Task: 0}}, // pool 0 asks first
	} {
		_, err := Run(s, fixedPolicy(tc.pick), []int{1, 1})
		if err == nil || !strings.Contains(err.Error(), "not ready on pool 0") {
			t.Errorf("%s: want contract violation error, got %v", tc.name, err)
		}
	}
}

func TestGenerateStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := StreamConfig{
		Jobs:             5,
		Workload:         workload.DefaultEP(3, workload.Layered),
		MeanInterarrival: 20,
	}
	s, err := GenerateStream(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumJobs() != 5 {
		t.Fatalf("jobs = %d", s.NumJobs())
	}
	for i := 1; i < s.NumJobs(); i++ {
		if s.Job(i).Release < s.Job(i-1).Release {
			t.Error("releases not sorted")
		}
	}
	if _, err := GenerateStream(StreamConfig{Jobs: 0}, rng); err == nil {
		t.Error("accepted zero jobs")
	}
	if _, err := GenerateStream(StreamConfig{Jobs: 1, MeanInterarrival: -1}, rng); err == nil {
		t.Error("accepted negative interarrival")
	}
	// Batch release.
	cfg.MeanInterarrival = 0
	s, err = GenerateStream(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumJobs(); i++ {
		if s.Job(i).Release != 0 {
			t.Error("batch stream should release everything at 0")
		}
	}
}

func TestPropertyPoliciesCompleteStreams(t *testing.T) {
	mk := []func() Policy{
		func() Policy { return NewGlobalGreedy() },
		func() Policy { return NewFCFS() },
		func() Policy { return NewSRPT() },
		func() Policy { return NewBalancedMQB() },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(3)
		cfg := StreamConfig{
			Jobs:             1 + rng.Intn(4),
			Workload:         workload.DefaultEP(k, workload.Random),
			MeanInterarrival: float64(rng.Intn(50)),
		}
		s, err := GenerateStream(cfg, rng)
		if err != nil {
			return false
		}
		procs := make([]int, k)
		for i := range procs {
			procs[i] = 1 + rng.Intn(3)
		}
		for _, m := range mk {
			res, err := Run(s, m(), procs)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			for i := 0; i < s.NumJobs(); i++ {
				// Every job completes at or after release + its span.
				if res.Completion[i] < s.Job(i).Release+s.Job(i).Graph.Span() {
					t.Logf("seed %d: job %d completion %d below release+span", seed, i, res.Completion[i])
					return false
				}
			}
			if res.MeanFlow(s) <= 0 || res.MaxFlow(s) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestBalancedMQBBeatsGreedyOnLayeredBatch(t *testing.T) {
	// A batch of layered EP jobs at t=0: cross-job balancing should cut
	// the makespan versus global FIFO, mirroring the single-job result.
	var greedy, mqb float64
	const n = 15
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		cfg := StreamConfig{Jobs: 4, Workload: workload.DefaultEP(4, workload.Layered)}
		cfg.Workload.EP.BranchesMin, cfg.Workload.EP.BranchesMax = 8, 12
		s, err := GenerateStream(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		procs := []int{3, 3, 3, 3}
		rg, err := Run(s, NewGlobalGreedy(), procs)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := Run(s, NewBalancedMQB(), procs)
		if err != nil {
			t.Fatal(err)
		}
		greedy += float64(rg.Makespan)
		mqb += float64(rm.Makespan)
	}
	if mqb >= greedy*0.9 {
		t.Errorf("BalancedMQB mean makespan %.1f not clearly below GlobalGreedy %.1f", mqb/n, greedy/n)
	}
}
