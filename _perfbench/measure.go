package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "jobs_per_s", "peak_rss_mb", "submit_p50_ms"}

// perLayer are the metrics of a traced run with their units. A layer a
// workload bypasses reports 0.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_s", "s"},
	{"dag.build_s", "s"},
	{"service.submit_s", "s"},
	{"service.advance_s", "s"},
	{"service.decisions", "count"},
	{"service.ns_per_decision", "ns"},
	{"service.ns_per_decision.q1", "ns"},
	{"service.scaling_ratio", "ratio"},
	{"service.backlog_peak", "count"},
	{"obs.events", "count"},
	{"obs.encode_s", "s"},
	{"obs.heap_mb", "MB"},
	{"service.fingerprint_s", "s"},
	{"verify.audit_s", "s"},
	{"wal.record_s", "s"},
	{"wal.frames", "count"},
	{"wal.dir_bytes", "bytes"},
	{"wal.recover_s", "s"},
	{"http.submit_s", "s"},
	{"http.decode_s", "s"},
	{"http.overhead_s", "s"},
	{"submit_p99_ms", "ms"},
	{"http.read_p99_ms", "ms"},
	{"http.status.200", "count"},
	{"http.status.201", "count"},
	{"http.status.other", "count"},
	{"fhd.recover_s", "s"},
	{"exp.run_s", "s"},
	{"sim.run_s.KGreedy", "s"},
	{"sim.run_s.LSpan", "s"},
	{"sim.run_s.DType", "s"},
	{"sim.run_s.MaxDP", "s"},
	{"sim.run_s.ShiftBT", "s"},
	{"sim.run_s.MQB", "s"},
	{"multi.run_s.GlobalGreedy", "s"},
	{"multi.run_s.FCFS", "s"},
	{"multi.run_s.SRPT", "s"},
	{"multi.run_s.BalancedMQB", "s"},
	{"proc.cpu_s", "s"},
	{"trace.jobs_per_s", "1/s"},
	{"trace.untraced_jobs_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// fillPerLayer reports every per-layer metric the workload did not
// reach as 0.
func fillPerLayer(r *run) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0, 0)
		}
	}
}

var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

// atCleanup registers fn to run before the process exits, on success,
// failure or signal alike.
func atCleanup(fn func()) {
	cleanupMu.Lock()
	cleanups = append(cleanups, fn)
	cleanupMu.Unlock()
}

// runCleanups runs the registered cleanups once, newest first.
func runCleanups() {
	cleanupMu.Lock()
	fns := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// selfUsage is this process's resource usage so far.
func selfUsage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is user plus system time of a usage record.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rssMB converts a Linux ru_maxrss (KiB) to MB.
func rssMB(ru *syscall.Rusage) float64 { return float64(ru.Maxrss) / 1024 }

// childCPU accumulates the CPU seconds of waited-for fhd children.
var childCPU float64

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs (sorted in place), averaging the
// two middle values of an even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// minReps is the fewest rounds each input of a run replays. A run
// cycles through several seeded inputs, so it does not hinge on one
// draw, and repeats each, so a median per input shrugs off bursts of
// host contention.
const minReps = 3

// inputSeed derives the seed of input k of a run (k < 64).
func inputSeed(seed int64, k int) int64 { return seed*64 + int64(k) }

// throughput aggregates timed rounds over several inputs: each input's
// median round time, then total jobs over the sum of those medians, so
// the mix of inputs is the same whatever the round count.
type throughput struct {
	jobs  []float64
	times [][]float64
}

func newThroughput(inputs int) *throughput {
	return &throughput{jobs: make([]float64, inputs), times: make([][]float64, inputs)}
}

// add records one round of input k.
func (t *throughput) add(k, jobs int, d time.Duration) {
	t.jobs[k] = float64(jobs)
	t.times[k] = append(t.times[k], d.Seconds())
}

// rounds is the number of rounds recorded.
func (t *throughput) rounds() int {
	n := 0
	for _, ts := range t.times {
		n += len(ts)
	}
	return n
}

// perSecond is jobs per second over the inputs that ran.
func (t *throughput) perSecond() float64 {
	var jobs, secs float64
	for k, ts := range t.times {
		if len(ts) > 0 {
			jobs += t.jobs[k]
			secs += median(append([]float64(nil), ts...))
		}
	}
	return jobs / secs
}

// resetPeakRSS returns freed heap to the OS and resets the process's
// peak RSS to its current RSS, so peakRSSMB then reads the peak of
// what follows — a fresh high-water mark per round in one process.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteString("5")
	return errors.Join(err, f.Close())
}

// peakRSSMB reads the process's peak RSS (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// traceOverhead reports traced against untraced throughput of the
// traced run's interleaved rounds.
func traceOverhead(r *run, untraced, traced *throughput) {
	tr, un := traced.perSecond(), untraced.perSecond()
	r.set("trace.jobs_per_s", "1/s", tr, traced.rounds())
	r.set("trace.untraced_jobs_per_s", "1/s", un, untraced.rounds())
	r.set("trace.overhead_pct", "%", 100*(un/tr-1), untraced.rounds())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spans sums, per layer name, the wall time spent in calls into the
// program's layers. A nil *spans records nothing, so the untraced pass
// runs the same code with tracing off.
type spans struct{ total map[string]time.Duration }

func newSpans() *spans { return &spans{total: map[string]time.Duration{}} }

// spanStart is an open span: its layer name and start time.
type spanStart struct {
	name string
	t0   time.Time
}

// begin opens a span for end.
func (s *spans) begin(name string) spanStart {
	if s == nil {
		return spanStart{}
	}
	return spanStart{name, time.Now()}
}

// end adds an open span's duration to its name's total.
func (s *spans) end(st spanStart) {
	if s == nil {
		return
	}
	s.total[st.name] += time.Since(st.t0)
}

// seconds is the summed duration of all spans with this name.
func (s *spans) seconds(name string) float64 { return s.total[name].Seconds() }
