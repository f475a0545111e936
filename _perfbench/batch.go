package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fhs"
	"fhs/internal/exp"
)

// batchInstances is the Figure 4 instance count per panel and input,
// batchStreams the number of Cosmos-style job streams per input (each
// simulated under all four stream policies), and batchInputs the
// number of inputs a run cycles through.
const (
	batchInstances = 1
	batchStreams   = 28
	batchInputs    = 8
)

// streamPolicies are the cross-job policies of examples/cluster.
var streamPolicies = []func() fhs.StreamPolicy{
	fhs.NewGlobalGreedy, fhs.NewFCFS, fhs.NewSRPT, fhs.NewBalancedMQB,
}

// batchInput is one round's input: the Figure 4 panels and the job
// streams.
type batchInput struct {
	panels  []exp.Spec
	streams []*fhs.JobStream
}

// makeBatch builds input k of a run: the Figure 4 panels at harness
// seed k+1 and job streams drawn from seed. The panels' instances do
// not follow the run's seed: their sizes are heavy-tailed, and at a
// handful of instances per run they swung jobs_per_s by 20% from seed
// to seed against 7.5% between repeats of one seed. Every run thus
// reproduces the same Figure 4 instances, as fhsim does at its
// default seeds.
func makeBatch(k int, seed int64) (*batchInput, error) {
	in := &batchInput{panels: exp.Figure4(exp.Options{Instances: batchInstances, Seed: int64(k) + 1, Workers: 1})}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < batchStreams; i++ {
		cfg := fhs.StreamConfig{
			Jobs:             8,
			Workload:         fhs.DefaultWorkloadConfig(fhs.EPWorkload, 4, fhs.LayeredTyping),
			MeanInterarrival: 40,
		}
		cfg.Workload.EP.BranchesMin, cfg.Workload.EP.BranchesMax = 8, 16
		st, err := fhs.GenerateJobStream(cfg, rng)
		if err != nil {
			return nil, err
		}
		in.streams = append(in.streams, st)
	}
	return in, nil
}

// batchRound runs one round — every Figure 4 panel, then every stream
// under every policy — and returns the digest of its outputs, the
// number of simulations, the wall time of each stream simulation and
// the panel tables.
func batchRound(r *run, in *batchInput, sp *spans) (digest string, sims int, streamMS []float64, tables []exp.Table, err error) {
	h := sha256.New()
	for _, spec := range in.panels {
		s := sp.begin("exp.run")
		t, err := exp.Run(spec)
		sp.end(s)
		r.op(err)
		if err != nil {
			continue
		}
		checkTable(r, t)
		if err := exp.WriteCSV(h, []exp.Table{t}); err != nil {
			return "", 0, nil, nil, err
		}
		tables = append(tables, t)
		sims += spec.Instances * len(spec.Schedulers)
	}
	for _, st := range in.streams {
		for _, mk := range streamPolicies {
			pol := mk()
			s := sp.begin("multi.run." + pol.Name())
			t0 := time.Now()
			res, err := fhs.SimulateStream(st, pol, machine)
			streamMS = append(streamMS, ms(time.Since(t0)))
			sp.end(s)
			r.op(err)
			if err != nil {
				continue
			}
			checkStream(r, st, res)
			writeInts(h, res.Makespan)
			writeInts(h, res.Completion...)
			sims++
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), sims, streamMS, tables, nil
}

// checkTable requires every instance to survive and every ratio to be
// at least 1 (no schedule beats the lower bound).
func checkTable(r *run, t exp.Table) {
	r.check(t.Dropped == 0, "%s: %d instances dropped", t.Name, t.Dropped)
	for _, row := range t.Rows {
		r.check(row.N == batchInstances, "%s %s: %d instances, want %d", t.Name, row.Scheduler, row.N, batchInstances)
		r.check(row.Min >= 1, "%s %s: ratio %g below 1", t.Name, row.Scheduler, row.Min)
	}
}

// checkStream requires every job to finish after its release and the
// makespan to cover every completion.
func checkStream(r *run, st *fhs.JobStream, res fhs.StreamResult) {
	r.check(len(res.Completion) == st.NumJobs(), "stream result has %d jobs, want %d", len(res.Completion), st.NumJobs())
	for i, c := range res.Completion {
		r.check(c > st.Job(i).Release && c <= res.Makespan, "stream job %d completes at %d (release %d, makespan %d)", i, c, st.Job(i).Release, res.Makespan)
	}
}

func writeInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func batch(r *run) error {
	n := batchInputs
	if r.traced {
		n = 1
	}
	var (
		setups, streamMS, rss []float64
		rates, tracedRates    = newThroughput(n), newThroughput(n)
		digests               = make([]string, n)
		ins                   = make([]*batchInput, n)
		tables                []exp.Table
		sp                    = newSpans()
		timed                 time.Duration
	)
	for round := 0; timed < r.budget || round < n*minReps; round++ {
		k := round % n
		if k == 0 {
			// Set-up makes all of the run's inputs, several times a cycle.
			for i := 0; i < setupReps; i++ {
				runtime.GC()
				t0 := time.Now()
				for j := range ins {
					var err error
					if ins[j], err = makeBatch(j, inputSeed(r.seed, j)); err != nil {
						return err
					}
				}
				setups = append(setups, time.Since(t0).Seconds())
			}
		}
		if err := resetPeakRSS(); err != nil {
			return err
		}
		traced := r.traced && round%2 == 0
		var rsp *spans
		if traced {
			rsp = sp
		}
		t0 := time.Now()
		digest, sims, lat, tabs, err := batchRound(r, ins[k], rsp)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		timed += d
		tables = tabs
		fmt.Fprintf(os.Stderr, "round %d input %d: %d sims in %.3fs, peak RSS %.1f MB\n", round, k, sims, d.Seconds(), peak)
		if traced {
			tracedRates.add(k, sims, d)
		} else {
			rates.add(k, sims, d)
			streamMS = append(streamMS, lat...)
		}
		if digests[k] == "" {
			digests[k] = digest
		}
		r.check(digest == digests[k], "round %d: input %d digest %s differs from its first run's %s", round, k, digest, digests[k])
	}
	for k, d := range digests {
		fmt.Printf("input %d (panel seed %d, stream seed %d) digest %s\n", k, k+1, inputSeed(r.seed, k), d)
	}

	r.set("submit_p99_ms", "ms", quantile(streamMS, 0.99), len(streamMS))
	if !r.traced {
		r.set("setup_s", "s", median(setups), len(setups))
		r.set("jobs_per_s", "1/s", rates.perSecond(), rates.rounds())
		r.set("peak_rss_mb", "MB", median(rss), len(rss))
		r.set("submit_p50_ms", "ms", quantile(streamMS, 0.50), len(streamMS))
		return nil
	}
	return batchLayers(r, ins[0], tables, sp, rates, tracedRates)
}

// batchLayers derives the per-layer metrics of a traced batch run: the
// exp harness and multi engine times from the traced rounds, and the
// per-scheduler sim times from panels rerun with one scheduler each,
// which must reproduce the rounds' tables row for row.
func batchLayers(r *run, in *batchInput, tables []exp.Table, sp *spans, rates, tracedRates *throughput) error {
	traceOverhead(r, rates, tracedRates)
	nTraced := float64(tracedRates.rounds())
	r.set("exp.run_s", "s", sp.seconds("exp.run")/nTraced, tracedRates.rounds())
	for _, mk := range streamPolicies {
		name := mk().Name()
		r.set("multi.run_s."+name, "s", sp.seconds("multi.run."+name)/nTraced, tracedRates.rounds())
	}

	ssp := newSpans()
	r.check(len(tables) == len(in.panels), "%d panel tables, want %d", len(tables), len(in.panels))
	for i, spec := range in.panels {
		if i >= len(tables) {
			break
		}
		full := tables[i]
		for _, name := range spec.Schedulers {
			one := spec
			one.Schedulers = []string{name}
			s := ssp.begin("sim.run." + name)
			t, err := exp.Run(one)
			ssp.end(s)
			r.op(err)
			if err != nil {
				continue
			}
			r.check(t.Rows[0] == *full.Row(name), "%s %s: narrowed run row %+v, full run %+v", spec.Name, name, t.Rows[0], *full.Row(name))
		}
	}
	for _, name := range in.panels[0].Schedulers {
		r.set("sim.run_s."+name, "s", ssp.seconds("sim.run."+name), 1)
	}

	t0 := time.Now()
	if _, err := makeBatch(0, inputSeed(r.seed, 0)); err != nil {
		return err
	}
	r.set("workload.gen_s", "s", time.Since(t0).Seconds(), 1)
	return nil
}
