package service

import (
	"errors"
	"math/rand"
	"testing"

	"fhs/internal/dag"
	"fhs/internal/obs"
	"fhs/internal/verify"
)

// spec returns a small EP job spec on k types.
func spec(k int, seed int64) JobSpec {
	return JobSpec{Class: "ep", Typing: "layered", K: k, Seed: seed}
}

// newTestCore builds a traced core over a {2,2} machine.
func newTestCore(t *testing.T, mod func(*Config)) *Core {
	t.Helper()
	cfg := Config{
		Procs:   []int{2, 2},
		Obs:     obs.NewTracer(),
		Metrics: obs.NewRegistry(),
	}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// audit replays the core's obs stream through the independent stream
// auditor.
func audit(t *testing.T, c *Core) {
	t.Helper()
	sa := verify.StreamAudit{
		Procs:        c.cfg.Procs,
		DefaultQuota: c.cfg.DefaultQuota,
		Quotas:       c.cfg.Quotas,
		FairShare:    !c.cfg.NoFairShare,
	}
	if c.cfg.Faults != nil {
		sa.Timeline = c.cfg.Faults.Timeline
		sa.MaxRetries = c.cfg.Faults.MaxRetries
	}
	for _, j := range c.StreamJobs() {
		sa.Jobs = append(sa.Jobs, verify.StreamJob{
			Job: j.Idx, Tenant: j.Tenant, Priority: j.Priority,
			Weight: j.Weight, Graph: j.Graph,
		})
	}
	if err := verify.AuditServiceStream(sa, c.cfg.Obs.Events()); err != nil {
		t.Errorf("stream audit: %v", err)
	}
}

// step is one scripted operation against a core.
type step struct {
	op      string // submit, cancel, advance, drain
	t       int64  // advance target
	id      string
	tenant  string
	prio    int
	weight  float64
	seed    int64
	wantErr error
}

// runScript drives a fresh core through steps and returns it.
func runScript(t *testing.T, mod func(*Config), steps []step) *Core {
	t.Helper()
	c := newTestCore(t, mod)
	for i, s := range steps {
		var err error
		switch s.op {
		case "submit":
			_, err = c.Submit(SubmitRequest{
				ID: s.id, Tenant: s.tenant, Priority: s.prio,
				Weight: s.weight, Spec: spec(2, s.seed),
			})
		case "cancel":
			_, err = c.Cancel(s.id)
		case "advance":
			err = c.AdvanceTo(s.t)
		case "drain":
			c.Drain()
		default:
			t.Fatalf("step %d: unknown op %q", i, s.op)
		}
		if !errors.Is(err, s.wantErr) {
			t.Fatalf("step %d (%s %s): error %v, want %v", i, s.op, s.id, err, s.wantErr)
		}
	}
	return c
}

// TestCoreScripts drives the core through the edge cases of the online
// API: interleaved arrivals and cancels, quota exhaustion, bad and
// duplicate IDs, cancels of finished jobs and time travel. Every
// accepted stream must satisfy the independent auditor.
func TestCoreScripts(t *testing.T) {
	cases := []struct {
		name  string
		mod   func(*Config)
		steps []step
	}{
		{
			name: "interleaved arrivals and cancels",
			steps: []step{
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "advance", t: 2},
				{op: "submit", id: "j1", tenant: "b", seed: 2},
				{op: "cancel", id: "j0"},
				{op: "advance", t: 5},
				{op: "submit", id: "j2", tenant: "a", seed: 3},
				{op: "cancel", id: "j1"},
				{op: "drain"},
			},
		},
		{
			name: "empty and duplicate ids",
			steps: []step{
				{op: "submit", id: "", tenant: "a", seed: 1, wantErr: ErrBadRequest},
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "submit", id: "j0", tenant: "b", seed: 2, wantErr: ErrDuplicateJob},
				{op: "drain"},
			},
		},
		{
			name: "quota exhaustion and recovery",
			mod:  func(c *Config) { c.DefaultQuota = 2 },
			steps: []step{
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "submit", id: "j1", tenant: "a", seed: 2},
				{op: "submit", id: "j2", tenant: "a", seed: 3, wantErr: ErrQuotaExceeded},
				{op: "submit", id: "k0", tenant: "b", seed: 4}, // other tenants unaffected
				{op: "drain"},
				{op: "submit", id: "j3", tenant: "a", seed: 5}, // slots freed by completion
				{op: "drain"},
			},
		},
		{
			name: "quota freed by cancellation",
			mod:  func(c *Config) { c.Quotas = map[string]int{"a": 1} },
			steps: []step{
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "submit", id: "j1", tenant: "a", seed: 2, wantErr: ErrQuotaExceeded},
				{op: "cancel", id: "j0"},
				{op: "submit", id: "j1", tenant: "a", seed: 2},
				{op: "drain"},
			},
		},
		{
			name: "cancel lifecycle errors",
			steps: []step{
				{op: "cancel", id: "nope", wantErr: ErrUnknownJob},
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "drain"},
				{op: "cancel", id: "j0", wantErr: ErrJobDone},
				{op: "submit", id: "j1", tenant: "a", seed: 2},
				{op: "cancel", id: "j1"},
				{op: "cancel", id: "j1", wantErr: ErrJobCancelled},
				{op: "drain"},
			},
		},
		{
			name: "time travel rejected",
			steps: []step{
				{op: "advance", t: 10},
				{op: "advance", t: 3, wantErr: ErrTimeTravel},
				{op: "submit", id: "j0", tenant: "a", seed: 1},
				{op: "drain"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := runScript(t, tc.mod, tc.steps)
			audit(t, c)
			if !c.Idle() {
				t.Error("core not idle after drain")
			}
			// The script is deterministic: a second run must fingerprint
			// identically.
			fp1, err := Fingerprint(c.cfg.Obs.Events(), c.cfg.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			c2 := runScript(t, tc.mod, tc.steps)
			fp2, err := Fingerprint(c2.cfg.Obs.Events(), c2.cfg.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if fp1 != fp2 {
				t.Errorf("fingerprint not stable across runs:\n%s\n%s", fp1, fp2)
			}
		})
	}
}

// TestFairShareBlocksStarvation submits a flood from one tenant and a
// single job from another at the same instant: with fair share on, the
// meek tenant's job must finish before the flood does; with fair share
// off under FIFO (KGreedy), the flood — queued first — runs first.
func TestFairShareBlocksStarvation(t *testing.T) {
	run := func(noFair bool) (meekDone, lastFloodDone int64) {
		c := newTestCore(t, func(cfg *Config) {
			cfg.Scheduler = "KGreedy"
			cfg.NoFairShare = noFair
		})
		for i := 0; i < 6; i++ {
			if _, err := c.Submit(SubmitRequest{
				ID: "flood-" + string(rune('0'+i)), Tenant: "aa", Spec: spec(2, int64(10+i)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Submit(SubmitRequest{ID: "meek", Tenant: "zz", Spec: spec(2, 99)}); err != nil {
			t.Fatal(err)
		}
		c.Drain()
		audit(t, c)
		for _, r := range c.Records() {
			if r.ID == "meek" {
				meekDone = r.Completed
			} else if r.Completed > lastFloodDone {
				lastFloodDone = r.Completed
			}
		}
		return meekDone, lastFloodDone
	}
	meekFair, floodFair := run(false)
	if meekFair >= floodFair {
		t.Errorf("fair share: meek tenant finished at %d, after the flood at %d", meekFair, floodFair)
	}
	meekFifo, floodFifo := run(true)
	if meekFifo < floodFifo {
		t.Errorf("FIFO without fair share: meek finished at %d, before the flood at %d — expected meek to be served last", meekFifo, floodFifo)
	}
}

// TestPriorityClasses: a high-priority arrival takes every freed
// processor ahead of queued low-priority work.
func TestPriorityClasses(t *testing.T) {
	c := newTestCore(t, nil)
	if _, err := c.Submit(SubmitRequest{ID: "low", Tenant: "a", Priority: 0, Spec: spec(2, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(SubmitRequest{ID: "high", Tenant: "a", Priority: 5, Spec: spec(2, 2)}); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	audit(t, c)
	low, _ := c.Status("low")
	high, _ := c.Status("high")
	if high.Completed >= low.Completed {
		t.Errorf("priority 5 job finished at %d, after the priority 0 job at %d", high.Completed, low.Completed)
	}
}

// TestCancelRetractsQueuedWork: cancelling a job with queued tasks
// shrinks the queues immediately and the job never reaches done state.
func TestCancelRetractsQueuedWork(t *testing.T) {
	c := newTestCore(t, nil)
	st, err := c.Submit(SubmitRequest{ID: "j0", Tenant: "a", Spec: spec(2, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}
	if _, err := c.Cancel("j0"); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	audit(t, c)
	got, _ := c.Status("j0")
	if got.State != StateCancelled {
		t.Errorf("cancelled job in state %q", got.State)
	}
	if got.DoneTasks >= got.Tasks {
		t.Errorf("cancelled job completed all %d tasks", got.Tasks)
	}
	s := c.Summary()
	if s.Cancelled != 1 || s.Done != 0 {
		t.Errorf("summary counts done=%d cancelled=%d, want 0/1", s.Done, s.Cancelled)
	}
}

// TestSpecErrors: malformed specs are ErrBadRequest, including a
// machine/job K mismatch.
func TestSpecErrors(t *testing.T) {
	c := newTestCore(t, nil)
	cases := []SubmitRequest{
		{ID: "a", Tenant: "t", Spec: JobSpec{Class: "nope", K: 2, Seed: 1}},
		{ID: "b", Tenant: "t", Spec: JobSpec{Class: "ep", Typing: "weird", K: 2, Seed: 1}},
		{ID: "c", Tenant: "t", Spec: JobSpec{Class: "ep", K: 0, Seed: 1}},
		{ID: "d", Tenant: "t", Spec: JobSpec{Class: "ep", K: 3, Seed: 1}}, // machine is K=2
		{ID: "e", Tenant: "t", Spec: JobSpec{Class: "ep", K: 2, Seed: 1, Scale: "huge"}},
		{ID: "f", Tenant: "t", Weight: -1, Spec: spec(2, 1)},
		{ID: "g", Tenant: "t", Priority: -2, Spec: spec(2, 1)},
	}
	for _, req := range cases {
		if _, err := c.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("submit %q: error %v, want ErrBadRequest", req.ID, err)
		}
	}
	if len(c.Records()) != 0 {
		t.Errorf("%d jobs admitted from bad requests", len(c.Records()))
	}
}

// countingPicker wraps a picker and counts the candidates it is
// offered.
type countingPicker struct {
	Picker
	picks, offered int
}

func (p *countingPicker) Pick(v *View, alpha dag.Type, cands []Cand) (int, float64) {
	p.picks++
	p.offered += len(cands)
	return p.Picker.Pick(v, alpha, cands)
}

// TestPickCostIndependentOfBacklog replays a trace whose pool queues
// run hundreds of tasks deep and checks that the picker sees class
// heads, not queued tasks: the candidates it is offered must sum to at
// most a fifth of the eligible tasks the decision events record.
func TestPickCostIndependentOfBacklog(t *testing.T) {
	ops, err := GenerateTrace(GenConfig{Jobs: 350, MeanGap: 2, K: 4, SeedBase: 64},
		rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCore(t, func(cfg *Config) { cfg.Procs = []int{4, 4, 4, 4} })
	cp := &countingPicker{Picker: c.picker}
	c.picker = cp
	for i := range ops {
		applyOp(t, c, &ops[i])
	}
	c.Drain()
	eligible, decisions := 0, 0
	for _, ev := range c.cfg.Obs.Events() {
		if ev.Kind == obs.KindDecision {
			eligible += int(ev.Arg)
			decisions++
		}
	}
	if decisions == 0 {
		t.Fatal("no contested picks; the trace never built a backlog")
	}
	t.Logf("%d picks offered %.1f candidates on average; %d decisions saw %.1f eligible tasks on average",
		cp.picks, float64(cp.offered)/float64(cp.picks), decisions, float64(eligible)/float64(decisions))
	if 5*cp.offered > eligible {
		t.Fatalf("picker offered %d candidates for %d eligible tasks; want at most a fifth", cp.offered, eligible)
	}
}
