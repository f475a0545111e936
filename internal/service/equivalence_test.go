package service

import (
	"math/rand"
	"testing"

	"fhs/internal/fault"
)

// equivCase is one seeded replay configuration of the equivalence
// table: a generated arrival trace, a core configuration, and a check
// that the run really exercised the feature it is in the table for.
type equivCase struct {
	name      string
	gen       GenConfig
	traceSeed int64
	cfg       func() Config
	exercised func(t *testing.T, res *ReplayResult)
}

// equivCases covers every path through the pick, place and retire
// logic: tenant weights and priority levels with cancels, the
// fair-share bypass with quotas and backlog shedding, fault churn with
// kills, retries and failed jobs, and EP-heavy traces whose pool
// queues hold many interchangeable tasks, one of them with cancels
// that retract tasks from the middle and head of shared queues.
func equivCases() []equivCase {
	return []equivCase{
		{
			name: "weighted-prio-cancel",
			gen: GenConfig{
				Jobs: 60, MeanGap: 2, CancelFrac: 0.3, K: 3, SeedBase: 500,
				PriorityLevels: 3,
				Tenants: []TenantSpec{
					{Name: "a", Weight: 3}, {Name: "b", Weight: 2}, {Name: "c", Weight: 1},
				},
			},
			traceSeed: 5,
			cfg:       func() Config { return Config{Procs: []int{2, 3, 2}} },
			exercised: func(t *testing.T, res *ReplayResult) {
				if res.Cancelled == 0 {
					t.Error("no cancel landed on a live job")
				}
			},
		},
		{
			name: "nofairshare-quota-shed",
			gen: GenConfig{
				Jobs: 80, MeanGap: 4, CancelFrac: 0.1, K: 2, SeedBase: 700,
				PriorityLevels: 2,
				Tenants: []TenantSpec{
					{Name: "a", Weight: 2}, {Name: "b", Weight: 1},
				},
			},
			traceSeed: 7,
			cfg: func() Config {
				return Config{
					Procs: []int{2, 2}, NoFairShare: true,
					DefaultQuota: 10, Quotas: map[string]int{"b": 4},
					MaxBacklogTasks: 40,
				}
			},
			exercised: func(t *testing.T, res *ReplayResult) {
				if res.Rejected == 0 || res.Shed == 0 {
					t.Errorf("rejected %d, shed %d: want both > 0", res.Rejected, res.Shed)
				}
			},
		},
		{
			name: "churn-kill-retry-fail",
			gen: GenConfig{
				Jobs: 50, MeanGap: 3, CancelFrac: 0.2, K: 2, SeedBase: 900,
				Tenants: []TenantSpec{
					{Name: "a", Weight: 1}, {Name: "b", Weight: 2},
				},
			},
			traceSeed: 9,
			cfg: func() Config {
				fc := fault.Config{MTTF: 8, MTTR: 6, Horizon: 500, MaxRetries: 1}
				return Config{
					Procs:  []int{3, 3},
					Faults: fc.NewPlan([]int{3, 3}, rand.New(rand.NewSource(19))),
				}
			},
			exercised: func(t *testing.T, res *ReplayResult) {
				if res.Summary.Kills == 0 || res.Summary.Failed == 0 {
					t.Errorf("kills %d, failed jobs %d: want both > 0", res.Summary.Kills, res.Summary.Failed)
				}
			},
		},
		{
			name: "ep-heavy",
			gen: GenConfig{
				Jobs: 40, MeanGap: 1, K: 2, SeedBase: 1100,
				Classes: []string{"ep"},
			},
			traceSeed: 11,
			cfg:       func() Config { return Config{Procs: []int{2, 2}} },
			exercised: func(t *testing.T, res *ReplayResult) {
				if res.Summary.Done != res.Submitted {
					t.Errorf("done %d of %d jobs", res.Summary.Done, res.Submitted)
				}
			},
		},
		{
			name: "ep-cancel",
			gen: GenConfig{
				Jobs: 40, MeanGap: 1, CancelFrac: 0.4, K: 2, SeedBase: 1300,
				Classes: []string{"ep"},
			},
			traceSeed: 13,
			cfg:       func() Config { return Config{Procs: []int{2, 2}} },
			exercised: func(t *testing.T, res *ReplayResult) {
				if res.Cancelled == 0 {
					t.Error("no cancel landed on a live job")
				}
			},
		},
	}
}

// equivFingerprints pins the replay fingerprint of every case under
// each picker. A change to how the core stores or scans its ready
// queues must leave every entry unchanged: the decision sequence is
// the contract, the data structure is not.
var equivFingerprints = map[string]string{
	"weighted-prio-cancel/MQB":       "12d978087e01863d7f1ca5599f75fc1d0608ca6e84990ba4b3fdb3e0d8737b8a",
	"weighted-prio-cancel/KGreedy":   "505fa395a07697db5bc8a04b3657416cacd4ec685ff90253f3557bbbaafb38d5",
	"nofairshare-quota-shed/MQB":     "bb59c301843ddc93ea4215adbed4f81a73acdf4e4854a5e7c2276b927ea1d52c",
	"nofairshare-quota-shed/KGreedy": "a65b4ad7f1471d9bdfe644dbcde4a3bbdef335c91d1a1c4c211d986094036928",
	"churn-kill-retry-fail/MQB":      "6b605047a4d4236c06f34cf7fd68c492ced2895235a5dd98ddf0da42e730209e",
	"churn-kill-retry-fail/KGreedy":  "0b4cdcfd097039b75e5ecc031a76ca14cc422ab707b52e92723258f299020f69",
	"ep-heavy/MQB":                   "407243a7c2eb2f5e502f9abd7ff4b12370180c934589257a4c53dcae9ad508ae",
	"ep-heavy/KGreedy":               "de526f3d6e8419827601ec879ff046852003ec0ec56d5d02d305311fc4b447fa",
	"ep-cancel/MQB":                  "4abaaa4bb8956c2bbe10022ca8d7bcbb998d97e73d58e26dfc1de4b867796525",
	"ep-cancel/KGreedy":              "aba1ede59756db83de416f30c115ef9a65663bb9fa3789fa9bdf0104b1778435",
}

// TestReplayEquivalenceTable replays every case under MQB and KGreedy
// and compares against the pinned fingerprints.
func TestReplayEquivalenceTable(t *testing.T) {
	for _, tc := range equivCases() {
		ops, err := GenerateTrace(tc.gen, rand.New(rand.NewSource(tc.traceSeed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"MQB", "KGreedy"} {
			name := tc.name + "/" + sched
			t.Run(name, func(t *testing.T) {
				cfg := tc.cfg()
				cfg.Scheduler = sched
				res, err := Replay(cfg, ops)
				if err != nil {
					t.Fatal(err)
				}
				tc.exercised(t, res)
				if want := equivFingerprints[name]; res.Fingerprint != want {
					t.Errorf("fingerprint %s, pinned %s", res.Fingerprint, want)
				}
			})
		}
	}
}
