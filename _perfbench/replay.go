package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fhs/internal/obs"
	"fhs/internal/service"
	"fhs/internal/verify"
)

// machine is the 4-pool machine every service workload schedules on.
var machine = []int{4, 4, 4, 4}

// replayShape describes one replay workload.
type replayShape struct {
	gen   service.GenConfig
	audit bool // also run verify.AuditServiceStream, as fhd -replay does by default
	// inputs is the number of distinct traces a run cycles through.
	inputs int
	// pinned are the fingerprints of the default seed's traces.
	pinned []string
	// probe replays the trace's first quarter too (the scaling probe).
	probe bool
}

// replayBacklog is the ROADMAP baseline traffic made steadier: one
// tenant arriving about twice as fast as the machine drains (mean gap
// 2), so pool queues reach thousands of tasks and the pick path
// (Core.candidates plus MQB scoring) dominates. The fhd -noaudit
// -replay path.
func replayBacklog(r *run) error {
	return replayWorkload(r, replayShape{
		gen:    service.GenConfig{Jobs: 350, MeanGap: 2, K: 4},
		inputs: 4,
		probe:  true,
		pinned: []string{
			"765ca0ce3f1ef55ff0c87da3fe347ab8df3f27fcdd2fc022d7d9b23b01a00a92",
			"46a70e78ad64d9883d0506b8b911693c4e91c9ad414b49dcd5e88334a223a897",
			"cf3c505adeca01ba9e74ab1714d2a04c05f8769fdb18e46717dd72f7454cbf71",
			"24e7f5f1698949fae7500d30cf06ea0d93c288dc3dfd5e02725cfb09c7be2a19",
		},
	})
}

// replayAudit is the default fhd -replay path on light three-tenant
// traffic with priorities and cancels: the backlog stays at a few
// jobs, the core is cheap and the stream auditor dominates.
func replayAudit(r *run) error {
	return replayWorkload(r, replayShape{
		gen: service.GenConfig{
			Jobs:           350,
			Tenants:        []service.TenantSpec{{Name: "t0", Weight: 2}, {Name: "t1", Weight: 1}, {Name: "t2", Weight: 1}},
			MeanGap:        40,
			CancelFrac:     0.05,
			K:              4,
			PriorityLevels: 2,
		},
		audit:  true,
		inputs: 8,
		pinned: []string{
			"dcd4cff2bb1256c7e78cb1b2dc317a557d6f718ddca4ff8ed525d64ef8f32251",
			"33ee690e44dd6547b20bc193cbb66bef33cc69aa6e05f6c8b1c731e80688f9bc",
			"1086f131e2155f609bb43c2310000878fb0c168add31f20c4707196049f24947",
			"98838dfa40bbd1d2cc0c9d604eb138b0f3a8fcfea08b0ea3840711e20ba69b61",
			"5d28cb143bbac1e531c4db544ff7f4e0b191356c3ffe2aa3b0bec6dc9ccc8e1a",
			"7b91a6db0ca7a4a0a1ea8bb1d110c47cb50b83527f9f8eb8fece5ce58e748885",
			"3842a56b4adeb22e9ab2edbef2a5408b7b917513e24e03a0ec1a9885c66dc1aa",
			"ff416749c0c105bb0d9190b0088bbe5a5956a96dac1fb1d00d1e3edc767361d8",
		},
	})
}

// makeTrace is the set-up the fhgen→fhd path pays: draw the arrival
// trace from the seed, encode it as JSONL and decode it again.
func makeTrace(gc service.GenConfig, seed int64) ([]service.Op, error) {
	ops, err := genTrace(gc, seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := service.WriteTrace(&buf, ops); err != nil {
		return nil, err
	}
	return service.ReadTrace(&buf)
}

// makeTraces is a replay run's set-up: makeTrace for each of its n
// inputs.
func makeTraces(gc service.GenConfig, seed int64, n int) ([][]service.Op, error) {
	traces := make([][]service.Op, n)
	for k := range traces {
		var err error
		if traces[k], err = makeTrace(gc, inputSeed(seed, k)); err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// genTrace draws the arrival trace of a seed; each job's spec seed is
// derived from it too.
func genTrace(gc service.GenConfig, seed int64) ([]service.Op, error) {
	gc.SeedBase = seed << 20
	return service.GenerateTrace(gc, rand.New(rand.NewSource(seed)))
}

// replayed is the outcome of one pass of replayOps.
type replayed struct {
	fp      string
	done    int
	elapsed time.Duration
	events  []obs.Event
}

// replayOps is service.Replay's loop with each call into the core made
// here, so that spans can wrap it and arrivals can be timed: apply ops
// to a fresh core one call at a time, drain, fingerprint and, if audit
// is set, run the stream auditor. It treats the same errors as
// outcomes that Replay does. With sp set each call into the service,
// the fingerprint and the auditor is wrapped in a span. lat, if not
// nil, receives the wall time of each arrival: the clock advance to
// its instant plus the submit.
func replayOps(r *run, ops []service.Op, audit bool, sp *spans, lat *[]float64) (*replayed, error) {
	cfg := service.Config{Procs: machine, Scheduler: "MQB", Obs: obs.NewTracer(), Metrics: obs.NewRegistry()}
	c, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := range ops {
		op := &ops[i]
		if err := op.Validate(); err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		t0 := time.Now()
		s := sp.begin("service.advance")
		err := c.AdvanceTo(op.T)
		sp.end(s)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		switch op.Op {
		case "submit":
			s := sp.begin("service.submit")
			_, err := c.Submit(op.SubmitRequest())
			sp.end(s)
			if lat != nil {
				*lat = append(*lat, ms(time.Since(t0)))
			}
			r.op(expected(err, service.ErrQuotaExceeded, service.ErrOverloaded, service.ErrIdempotentReplay))
		case "cancel":
			s := sp.begin("service.cancel")
			_, err := c.Cancel(op.ID)
			sp.end(s)
			r.op(expected(err, service.ErrJobDone, service.ErrJobCancelled, service.ErrJobFailed, service.ErrUnknownJob))
		}
	}
	s := sp.begin("service.advance")
	c.Drain()
	sp.end(s)
	out := &replayed{done: c.Summary().Done, events: cfg.Obs.Events()}
	s = sp.begin("service.fingerprint")
	out.fp, err = service.Fingerprint(out.events, cfg.Metrics)
	sp.end(s)
	r.op(err)
	if audit {
		s := sp.begin("verify.audit")
		err := auditStream(c.StreamJobs(), out.events)
		sp.end(s)
		r.op(err)
	}
	out.elapsed = time.Since(start)
	return out, nil
}

// expected clears an error that service.Replay counts as an outcome
// (a rejected submit, a cancel that misses) rather than a failure.
func expected(err error, outcomes ...error) error {
	for _, o := range outcomes {
		if errors.Is(err, o) {
			return nil
		}
	}
	return err
}

// auditStream runs the independent stream auditor the way fhd -replay
// does.
func auditStream(stream []service.StreamJobInfo, events []obs.Event) error {
	sa := verify.StreamAudit{Procs: machine, FairShare: true}
	for _, j := range stream {
		sa.Jobs = append(sa.Jobs, verify.StreamJob{
			Job: j.Idx, Tenant: j.Tenant, Priority: j.Priority, Weight: j.Weight, Graph: j.Graph,
		})
	}
	return verify.AuditServiceStream(sa, events)
}

// setupReps is the number of set-ups timed per cycle through a run's
// inputs.
const setupReps = 5

func replayWorkload(r *run, shape replayShape) error {
	n := shape.inputs
	if r.traced {
		// The traced run stays on trace 0, so its traced and untraced
		// rounds replay the same ops.
		n = 1
	}
	var (
		setups, lat, rss   []float64
		rates, tracedRates = newThroughput(n), newThroughput(n)
		fps                = make([]string, n)
		ops                [][]service.Op
		last               *replayed
		sp                 = newSpans()
		timed              time.Duration
	)
	for round := 0; timed < r.budget || round < n*minReps; round++ {
		k := round % n
		if k == 0 {
			// Set-up makes all of the run's inputs. It is timed several
			// times a cycle, each from a collected heap, so its median is
			// steady.
			for i := 0; i < setupReps; i++ {
				runtime.GC()
				t0 := time.Now()
				var err error
				if ops, err = makeTraces(shape.gen, r.seed, n); err != nil {
					return err
				}
				setups = append(setups, time.Since(t0).Seconds())
			}
		}

		var fp string
		// The traced run alternates traced and untraced rounds, so the
		// tracing overhead is measured under the same host conditions.
		if r.traced && round%2 == 0 {
			res, err := replayOps(r, ops[k], shape.audit, sp, nil)
			if err != nil {
				return err
			}
			timed += res.elapsed
			tracedRates.add(k, res.done, res.elapsed)
			last, fp = res, res.fp
			fmt.Fprintf(os.Stderr, "round %d trace %d (traced): %d jobs in %.3fs\n", round, k, res.done, res.elapsed.Seconds())
		} else {
			// The timed region is what fhd -replay runs: service.Replay,
			// which ends with the fingerprint, then the stream audit.
			if err := resetPeakRSS(); err != nil {
				return err
			}
			t0 := time.Now()
			res, err := service.Replay(service.Config{Procs: machine, Scheduler: "MQB"}, ops[k])
			if err != nil {
				return err
			}
			r.attempted += int64(len(ops[k]))
			if shape.audit {
				r.op(auditStream(res.Stream, res.Events))
			}
			d := time.Since(t0)
			peak, err := peakRSSMB()
			if err != nil {
				return err
			}
			rss = append(rss, peak)
			rates.add(k, res.Summary.Done, d)
			fp = res.Fingerprint

			// Arrival latencies come from the one-call-at-a-time loop,
			// outside the timed region; it must reproduce Replay.
			loop, err := replayOps(r, ops[k], false, nil, &lat)
			if err != nil {
				return err
			}
			r.check(loop.fp == fp, "round %d: loop fingerprint %s, service.Replay %s", round, loop.fp, fp)
			timed += d + loop.elapsed
			fmt.Fprintf(os.Stderr, "round %d trace %d: %d jobs in %.3fs, peak RSS %.1f MB; loop %.3fs\n", round, k, res.Summary.Done, d.Seconds(), peak, loop.elapsed.Seconds())
			r.check(res.Summary.Done > 0, "round %d finished no jobs", round)
		}
		if fps[k] == "" {
			fps[k] = fp
		}
		r.check(fp == fps[k], "round %d: trace %d fingerprint %s differs from its first replay's %s", round, k, fp, fps[k])
		if r.seed == defaultSeed && k < len(shape.pinned) {
			r.check(fp == shape.pinned[k], "trace %d fingerprint %s, pinned %s for seed %d", k, fp, shape.pinned[k], defaultSeed)
		}
	}
	for k, fp := range fps {
		fmt.Printf("trace %d (seed %d) fingerprint %s\n", k, inputSeed(r.seed, k), fp)
	}

	r.set("submit_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	if !r.traced {
		r.set("setup_s", "s", median(setups), len(setups))
		r.set("jobs_per_s", "1/s", rates.perSecond(), rates.rounds())
		r.set("peak_rss_mb", "MB", median(rss), len(rss))
		r.set("submit_p50_ms", "ms", quantile(lat, 0.50), len(lat))
		return nil
	}
	return replayLayers(r, shape, ops[0], sp, last, rates, tracedRates)
}

// replayLayers derives the per-layer metrics of a traced replay run.
// Its traced rounds' fingerprints were checked against the untraced
// rounds', which are service.Replay's.
func replayLayers(r *run, shape replayShape, ops []service.Op, sp *spans, last *replayed, rates, tracedRates *throughput) error {
	traceOverhead(r, rates, tracedRates)
	nTraced := float64(tracedRates.rounds())

	t0 := time.Now()
	if _, err := genTrace(shape.gen, inputSeed(r.seed, 0)); err != nil {
		return err
	}
	r.set("workload.gen_s", "s", time.Since(t0).Seconds(), 1)
	build, buildQ1, q1 := graphBuild(r, ops)
	r.set("dag.build_s", "s", build, 1)

	perRound := func(name string) float64 { return sp.seconds(name) / nTraced }
	submit, advance := perRound("service.submit"), perRound("service.advance")
	r.set("service.submit_s", "s", submit, tracedRates.rounds())
	r.set("service.advance_s", "s", advance, tracedRates.rounds())
	r.set("service.fingerprint_s", "s", perRound("service.fingerprint"), tracedRates.rounds())
	if shape.audit {
		r.set("verify.audit_s", "s", perRound("verify.audit"), tracedRates.rounds())
	}
	decisions, peak := streamCounts(last.events)
	r.set("service.decisions", "count", float64(decisions), 1)
	r.set("service.backlog_peak", "count", float64(peak), 1)
	core := submit + advance + perRound("service.cancel") - build
	nsPer := core * 1e9 / float64(decisions)
	r.set("service.ns_per_decision", "ns", nsPer, decisions)

	if shape.probe {
		// The scaling probe: the trace's first quarter on its own.
		qsp := newSpans()
		qres, err := replayOps(r, ops[:q1], false, qsp, nil)
		if err != nil {
			return err
		}
		qd, _ := streamCounts(qres.events)
		qcore := qsp.seconds("service.submit") + qsp.seconds("service.advance") + qsp.seconds("service.cancel") - buildQ1
		nsQ1 := qcore * 1e9 / float64(qd)
		r.set("service.ns_per_decision.q1", "ns", nsQ1, qd)
		r.set("service.scaling_ratio", "ratio", nsPer/nsQ1, 1)
	}

	obsLayers(r, last.events)
	return nil
}

// obsLayers reports the size of an obs stream, the time to encode it
// as canonical JSONL, and the live heap while it is held.
func obsLayers(r *run, events []obs.Event) {
	r.set("obs.events", "count", float64(len(events)), 1)
	t0 := time.Now()
	r.op(obs.WriteJSONL(io.Discard, events))
	r.set("obs.encode_s", "s", time.Since(t0).Seconds(), 1)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("obs.heap_mb", "MB", float64(m.HeapAlloc)/(1<<20), 1)
	runtime.KeepAlive(events)
}

// graphBuild times JobSpec.Graph for every submit of the trace, and
// for the submits of its first quarter; q1 is the length of the op
// prefix that holds the first quarter's submits.
func graphBuild(r *run, ops []service.Op) (total, first float64, q1 int) {
	submits := 0
	for _, op := range ops {
		if op.Op == "submit" {
			submits++
		}
	}
	seen := 0
	for i, op := range ops {
		if op.Op != "submit" {
			continue
		}
		t0 := time.Now()
		_, err := op.Spec.Graph()
		d := time.Since(t0).Seconds()
		r.op(err)
		total += d
		if seen < submits/4 {
			first += d
			q1 = i + 1
		}
		seen++
	}
	return total, first, q1
}

// streamCounts counts decision events and finds the largest number of
// queued tasks over the stream's queue-depth samples (one sample
// covers every pool).
func streamCounts(events []obs.Event) (decisions, peak int) {
	depth := make([]int64, len(machine))
	for _, e := range events {
		switch e.Kind {
		case obs.KindDecision:
			decisions++
		case obs.KindQueueDepth:
			depth[e.Type] = e.Arg
			if int(e.Type) == len(machine)-1 {
				var sum int64
				for _, d := range depth {
					sum += d
				}
				if int(sum) > peak {
					peak = int(sum)
				}
			}
		}
	}
	return decisions, peak
}
