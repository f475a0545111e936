// Command perfbench is the repository's layered benchmark. Each
// invocation runs one workload in a fresh process, checks the
// program's outputs and prints, as its last stdout line, one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1). See README.md beside this file
// for the workloads, the metric definitions and the steadiness record.
//
// Usage (from the repository root, through run.sh which builds fhd and
// this binary first):
//
//	bash _perfbench/run.sh --workload replay-backlog --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned fingerprints belong to.
const defaultSeed = 1

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	name    string // workload
	seed    int64
	budget  time.Duration
	traced  bool
	fhd     string // fhd binary (wire-wal)
	scratch string // directory for WAL directories and other run files

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	samples           map[string]int // sample count behind each metric, for the human table
}

// set records a metric with the number of samples behind it.
func (r *run) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// check records a failed output check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.problems = append(r.problems, "operation failed: "+err.Error())
		}
	}
}

var workloads = map[string]func(*run) error{
	"replay-backlog": replayBacklog,
	"replay-audit":   replayAudit,
	"wire-wal":       wireWAL,
	"batch":          batch,
}

func main() {
	name := flag.String("workload", "", "workload: replay-backlog, replay-audit, wire-wal or batch")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 20, "length of the timed region")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	fhd := flag.String("fhd", "", "fhd binary (wire-wal)")
	scratch := flag.String("scratch", ".bench_build/run", "directory for run files")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{
		name:    *name,
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		fhd:     *fhd,
		scratch: *scratch,
		metrics: map[string]metric{},
		samples: map[string]int{},
	}
	if err := os.MkdirAll(r.scratch, 0o755); err != nil {
		fatal(err)
	}
	// A signal still runs the cleanups (fhd child, WAL directories).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		runCleanups()
		os.Exit(1)
	}()

	err := fn(r)
	runCleanups()
	if err != nil {
		fatal(err)
	}
	if _, ok := r.metrics["proc.cpu_s"]; !ok {
		ru := selfUsage()
		r.set("proc.cpu_s", "s", cpuSeconds(&ru), 1)
	}
	if r.traced {
		fillPerLayer(r)
	}

	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-32s %16.6f %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	want := endToEnd
	if r.traced {
		want = nil
		for _, m := range perLayer {
			want = append(want, m.name)
		}
	}
	for _, n := range want {
		out.Metrics[n] = r.metrics[n]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct || out.Attempted == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	runCleanups()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
