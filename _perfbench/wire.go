package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"fhs/internal/obs"
	"fhs/internal/service"
	"fhs/internal/service/wal"
)

// wireGen is the light two-tenant traffic of wire-wal: the backlog
// stays at a few jobs, so the core is cheap and HTTP, the journal's
// append plus fsync and the handler's lock dominate.
var wireGen = service.GenConfig{
	Jobs:    1200,
	Tenants: []service.TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 1}},
	MeanGap: 40,
	K:       4,
}

// roundWidth is the virtual-time width of one round: one connection
// advances the clock to the round's start, then both submit the
// round's jobs at once (about four per tenant).
const roundWidth = 8 * 40

// scrapeEvery is the metrics scrape rate of connection 1, in submits.
const scrapeEvery = 25

// chunkRounds is the number of rounds timed together as one chunk of a
// session's load phase.
const chunkRounds = 15

// wireSubmit is one submit of the wire trace.
type wireSubmit struct {
	id   string
	body []byte
}

// wireRound is one virtual-time round: its start instant and each
// connection's submits.
type wireRound struct {
	t    int64
	jobs [2][]wireSubmit
}

// wireTrace groups the generated ops into rounds; tenant a drives
// connection 0 and tenant b connection 1.
func wireTrace(ops []service.Op) ([]wireRound, map[string]service.JobSpec, error) {
	var rounds []wireRound
	specs := map[string]service.JobSpec{}
	for _, op := range ops {
		if op.Op != "submit" {
			continue
		}
		t := op.T / roundWidth * roundWidth
		if len(rounds) == 0 || rounds[len(rounds)-1].t != t {
			rounds = append(rounds, wireRound{t: t})
		}
		body, err := json.Marshal(op.SubmitRequest())
		if err != nil {
			return nil, nil, err
		}
		conn := 0
		if op.Tenant == "b" {
			conn = 1
		}
		rd := &rounds[len(rounds)-1]
		rd.jobs[conn] = append(rd.jobs[conn], wireSubmit{id: op.ID, body: body})
		specs[op.ID] = op.Spec
	}
	return rounds, specs, nil
}

// fhdProc is one running fhd server.
type fhdProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startFhd starts fhd on walDir with fsync always and waits until
// /readyz answers 200. A cleanup kills it if the run ends early.
func startFhd(r *run, walDir string) (*fhdProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(filepath.Join(r.scratch, "fhd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		p := &fhdProc{
			cmd:  exec.Command(r.fhd, "-procs", "4,4,4,4", "-addr", addr, "-wal", walDir, "-fsync", "always"),
			base: "http://" + addr,
			done: make(chan struct{}),
		}
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		if err := p.cmd.Start(); err != nil {
			return nil, errors.Join(err, logf.Close())
		}
		go func() {
			_ = p.cmd.Wait()
			_ = logf.Close()
			close(p.done)
		}()
		atCleanup(p.kill)
		if lastErr = p.waitReady(); lastErr == nil {
			return p, nil
		}
		p.kill()
	}
	return nil, lastErr
}

// waitReady polls /readyz every millisecond until it answers 200.
func (p *fhdProc) waitReady() error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("fhd exited before ready: %v", p.cmd.ProcessState)
		default:
		}
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("fhd not ready within 60s")
}

// stop sends SIGTERM, waits for the graceful drain and returns the
// process's resource usage.
func (p *fhdProc) stop() (*syscall.Rusage, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, fmt.Errorf("fhd did not exit after SIGTERM")
	}
	if !p.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("fhd exited with %v", p.cmd.ProcessState)
	}
	ru, _ := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, fmt.Errorf("fhd resource usage unavailable")
	}
	childCPU += cpuSeconds(ru)
	return ru, nil
}

// kill stops the process if it still runs and waits for it.
func (p *fhdProc) kill() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// conn is one client connection's state: a keep-alive transport
// limited to one connection, and what it observed.
type conn struct {
	client            *http.Client
	base              string
	attempted, failed int64
	problems          []string
	status            map[int]int64
	submitMS, readMS  []float64
	sp                *spans
}

// newConn opens a connection; traced connections record spans of
// their own, so the two load goroutines never share a recorder.
func newConn(base string, traced bool) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &conn{
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:   base,
		status: map[int]int64{},
	}
	if traced {
		c.sp = newSpans()
	}
	return c
}

// do sends one request, reads the whole response and checks its
// status; a transport error or any other status is a failure.
func (c *conn) do(method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.attempted++
	start := time.Now()
	resp, err := c.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		err = errors.Join(err, resp.Body.Close())
	}
	d := time.Since(start)
	if err == nil {
		c.status[resp.StatusCode]++
		if resp.StatusCode != want {
			err = fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
		}
	}
	if err != nil {
		c.failed++
		c.note(err)
	}
	return data, d, err
}

// submitAndRead posts one submit, then reads the status of one of the
// connection's earlier jobs.
func (c *conn) submitAndRead(s wireSubmit, earlier string) {
	sp := c.sp.begin("http.submit")
	_, d, _ := c.do(http.MethodPost, "/v1/jobs", s.body, http.StatusCreated)
	c.sp.end(sp)
	c.submitMS = append(c.submitMS, ms(d))
	sp = c.sp.begin("http.read")
	_, d, _ = c.do(http.MethodGet, "/v1/jobs/"+earlier, nil, http.StatusOK)
	c.sp.end(sp)
	c.readMS = append(c.readMS, ms(d))
}

// chunkJobs is the number of submits in each chunk of the rounds.
func chunkJobs(rounds []wireRound) []int {
	jobs := make([]int, (len(rounds)+chunkRounds-1)/chunkRounds)
	for i, rd := range rounds {
		jobs[i/chunkRounds] += len(rd.jobs[0]) + len(rd.jobs[1])
	}
	return jobs
}

// drive plays the rounds as a closed loop over two connections and
// returns the wall time of each chunk of chunkRounds rounds, from its
// first request to its last answer; the drain's answer ends the last.
func drive(rounds []wireRound, conns [2]*conn) []time.Duration {
	var chunks []time.Duration
	start := time.Now()
	var own [2][]string
	for i, rd := range rounds {
		if i > 0 && i%chunkRounds == 0 {
			chunks = append(chunks, time.Since(start))
			start = time.Now()
		}
		conns[0].do(http.MethodPost, "/v1/advance", []byte(fmt.Sprintf(`{"to":%d}`, rd.t)), http.StatusOK)
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				c := conns[k]
				for _, s := range rd.jobs[k] {
					own[k] = append(own[k], s.id)
					// The job submitted half the connection's history ago.
					c.submitAndRead(s, own[k][len(own[k])/2])
					if k == 1 && len(own[1])%scrapeEvery == 0 {
						c.do(http.MethodGet, "/v1/metrics?format=json", nil, http.StatusOK)
					}
				}
			}(k)
		}
		wg.Wait()
	}
	conns[0].do(http.MethodPost, "/v1/advance", []byte(`{"drain":true}`), http.StatusOK)
	return append(chunks, time.Since(start))
}

// session is one fhd lifetime on a fresh WAL: serve the trace, check
// the outcome, restart on the same WAL and check recovery.
type session struct {
	// chunks time the load phase, wall the whole session.
	setup, recover, wall time.Duration
	chunks               []time.Duration
	rssMB                float64
	conns                [2]*conn
	events               []obs.Event
	records              []service.JobStatus
}

func runSession(r *run, n int, traced, audit bool) (*session, error) {
	s := &session{}
	start := time.Now()
	defer func() { s.wall = time.Since(start) }()
	walDir, err := os.MkdirTemp(r.scratch, "wal-")
	if err != nil {
		return nil, err
	}
	atCleanup(func() { _ = os.RemoveAll(walDir) })

	t0 := time.Now()
	ops, err := makeTrace(wireGen, r.seed)
	if err != nil {
		return nil, err
	}
	rounds, _, err := wireTrace(ops)
	if err != nil {
		return nil, err
	}
	p, err := startFhd(r, walDir)
	if err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)

	s.conns = [2]*conn{newConn(p.base, traced), newConn(p.base, traced)}
	s.chunks = drive(rounds, s.conns)

	c := s.conns[0]
	var sum service.Summary
	if data, _, err := c.do(http.MethodGet, "/v1/summary", nil, http.StatusOK); err == nil {
		c.check(json.Unmarshal(data, &sum))
	}
	if sum.Jobs != n || sum.Done != n {
		c.note(fmt.Errorf("%d jobs admitted and %d done after the drain, want %d", sum.Jobs, sum.Done, n))
	}
	fp := fingerprint(c)
	if audit {
		// The stream and the admission order, for the audit.
		if data, _, err := c.do(http.MethodGet, "/v1/obs", nil, http.StatusOK); err == nil {
			s.events, err = obs.ReadJSONL(bytes.NewReader(data))
			c.check(err)
		}
		if data, _, err := c.do(http.MethodGet, "/v1/jobs", nil, http.StatusOK); err == nil {
			c.check(json.Unmarshal(data, &s.records))
		}
	}
	ru, err := p.stop()
	if err != nil {
		return nil, err
	}
	s.rssMB = rssMB(ru)

	// Restart on the same WAL; recovery ends when /readyz answers.
	t0 = time.Now()
	p, err = startFhd(r, walDir)
	if err != nil {
		return nil, err
	}
	s.recover = time.Since(t0)
	rc := newConn(p.base, false)
	if got := fingerprint(rc); got != fp {
		c.note(fmt.Errorf("restart fingerprint %s, before %s", got, fp))
	}
	c.attempted += rc.attempted
	c.failed += rc.failed
	c.problems = append(c.problems, rc.problems...)
	if _, err := p.stop(); err != nil {
		return nil, err
	}
	return s, os.RemoveAll(walDir)
}

// fingerprint fetches /v1/fingerprint.
func fingerprint(c *conn) string {
	var out struct {
		Fingerprint string `json:"fingerprint"`
	}
	if data, _, err := c.do(http.MethodGet, "/v1/fingerprint", nil, http.StatusOK); err == nil {
		c.check(json.Unmarshal(data, &out))
	}
	return out.Fingerprint
}

// check counts an undecodable response as a failed operation.
func (c *conn) check(err error) {
	if err != nil {
		c.failed++
		c.note(err)
	}
}

// note records a failed operation or output check, keeping the first
// few.
func (c *conn) note(err error) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, err.Error())
	}
}

// auditServed audits a served stream: the admission order comes from
// GET /v1/jobs, and each job's graph from its spec.
func auditServed(s *session, specs map[string]service.JobSpec) error {
	var stream []service.StreamJobInfo
	for i, rec := range s.records {
		g, err := specs[rec.ID].Graph()
		if err != nil {
			return err
		}
		stream = append(stream, service.StreamJobInfo{
			Idx: int64(i), ID: rec.ID, Tenant: rec.Tenant, Priority: rec.Priority, Weight: rec.Weight, Graph: g,
		})
	}
	return auditStream(stream, s.events)
}

func wireWAL(r *run) error {
	if r.fhd == "" {
		return fmt.Errorf("wire-wal needs -fhd")
	}
	ops, err := makeTrace(wireGen, r.seed)
	if err != nil {
		return err
	}
	rounds, specs, err := wireTrace(ops)
	if err != nil {
		return err
	}
	// Throughput is taken per chunk of the load phase: each chunk's
	// median time over the run's sessions, so a burst of host
	// contention in part of a few sessions does not move it.
	jobs := chunkJobs(rounds)
	var (
		setups, rss, recovers []float64
		rates, tracedRates    = newThroughput(len(jobs)), newThroughput(len(jobs))
		submitMS, readMS      []float64
		status                = map[int]int64{}
		audit                 time.Duration
		httpSubmit            float64
		sessions              int
	)
	var timed time.Duration
	for timed < r.budget || len(submitMS) < 1000 || sessions < minReps {
		traced := r.traced && sessions%2 == 0
		s, err := runSession(r, wireGen.Jobs, traced, sessions == 0)
		if err != nil {
			return err
		}
		timed += s.wall
		var load time.Duration
		for i, d := range s.chunks {
			load += d
			if traced {
				tracedRates.add(i, jobs[i], d)
			} else {
				rates.add(i, jobs[i], d)
			}
		}
		fmt.Fprintf(os.Stderr, "session %d: load %.3fs, recover %.3fs, session %.3fs, fhd peak RSS %.1f MB\n", sessions, load.Seconds(), s.recover.Seconds(), s.wall.Seconds(), s.rssMB)
		setups = append(setups, s.setup.Seconds())
		if sessions > 0 {
			// The audited first session also serves the /v1/obs dump.
			rss = append(rss, s.rssMB)
		}
		recovers = append(recovers, s.recover.Seconds())
		for _, c := range s.conns {
			r.attempted += c.attempted
			r.failed += c.failed
			r.problems = append(r.problems, c.problems...)
			for code, n := range c.status {
				status[code] += n
			}
			submitMS = append(submitMS, c.submitMS...)
			if traced {
				httpSubmit += c.sp.seconds("http.submit")
			}
			readMS = append(readMS, c.readMS...)
		}
		// The served stream is audited outside the timed region, once
		// per run: the auditor's cost grows quadratically with length.
		if sessions == 0 {
			t0 := time.Now()
			r.op(auditServed(s, specs))
			audit = time.Since(t0)
		}
		sessions++
	}
	fmt.Printf("%d sessions of %d jobs in %d rounds\n", sessions, wireGen.Jobs, len(rounds))

	r.set("fhd.recover_s", "s", median(recovers), len(recovers))
	r.set("http.read_p99_ms", "ms", quantile(readMS, 0.99), len(readMS))
	r.set("submit_p99_ms", "ms", quantile(submitMS, 0.99), len(submitMS))
	r.set("proc.cpu_s", "s", childCPU, sessions*2)
	if !r.traced {
		r.set("setup_s", "s", median(setups), len(setups))
		r.set("jobs_per_s", "1/s", rates.perSecond(), rates.rounds())
		// Each fhd's peak is one of two levels, depending on where its
		// last GC fell; the highest over the run is steady where the
		// median flips between them.
		r.set("peak_rss_mb", "MB", slices.Max(rss), len(rss))
		r.set("submit_p50_ms", "ms", quantile(submitMS, 0.50), len(submitMS))
		return nil
	}
	traceOverhead(r, rates, tracedRates)
	nTraced := (sessions + 1) / 2
	r.set("verify.audit_s", "s", audit.Seconds(), 1)
	r.set("http.status.200", "count", float64(status[200]), 1)
	r.set("http.status.201", "count", float64(status[201]), 1)
	var other int64
	for code, n := range status {
		if code != 200 && code != 201 {
			other += n
		}
	}
	r.set("http.status.other", "count", float64(other), 1)
	httpSubmit /= float64(nTraced)
	r.set("http.submit_s", "s", httpSubmit, nTraced)
	t0 := time.Now()
	if _, err := genTrace(wireGen, r.seed); err != nil {
		return err
	}
	r.set("workload.gen_s", "s", time.Since(t0).Seconds(), 1)
	build, _, _ := graphBuild(r, ops)
	r.set("dag.build_s", "s", build, 1)
	return wireLayers(r, rounds, httpSubmit, build)
}

// wireLayers runs the wire-wal op sequence in-process — decode,
// journal record with fsync always, core apply — in one fixed order,
// then recovers from the journal, and reports each layer's time.
func wireLayers(r *run, rounds []wireRound, httpSubmit, build float64) error {
	walDir, err := os.MkdirTemp(r.scratch, "wal-")
	if err != nil {
		return err
	}
	atCleanup(func() { _ = os.RemoveAll(walDir) })
	jopts := service.JournalOptions{WAL: wal.Options{Fsync: wal.FsyncAlways, SegmentBytes: 1 << 20}, SnapshotEvery: 256}
	jn, _, _, err := service.OpenJournal(walDir, jopts)
	if err != nil {
		return err
	}
	cfg := service.Config{Procs: machine, Scheduler: "MQB", Obs: obs.NewTracer(), Metrics: obs.NewRegistry()}
	core, err := service.New(cfg)
	if err != nil {
		return errors.Join(err, jn.Close())
	}
	sp := newSpans()
	record := func(rec service.Rec) {
		s := sp.begin("wal.record")
		r.op(jn.Record(rec))
		sp.end(s)
	}
	for _, rd := range rounds {
		record(service.Rec{Op: "advance", To: rd.t})
		s := sp.begin("service.advance")
		r.op(core.AdvanceTo(rd.t))
		sp.end(s)
		for k := 0; k < 2; k++ {
			for _, sub := range rd.jobs[k] {
				pipe := sp.begin("pipeline.submit")
				s := sp.begin("http.decode")
				req, err := service.DecodeSubmitRequest(sub.body)
				sp.end(s)
				r.op(err)
				record(service.Rec{Op: "submit", Submit: &req})
				s = sp.begin("service.submit")
				_, err = core.Submit(req)
				sp.end(s)
				r.op(err)
				sp.end(pipe)
			}
		}
	}
	record(service.Rec{Op: "drain"})
	s := sp.begin("service.advance")
	core.Drain()
	sp.end(s)
	events := cfg.Obs.Events()
	s = sp.begin("service.fingerprint")
	fp, err := service.Fingerprint(events, cfg.Metrics)
	sp.end(s)
	r.op(err)
	frames := jn.Frames()
	if err := jn.Close(); err != nil {
		return err
	}

	s = sp.begin("wal.recover")
	jn2, recs, _, err := service.OpenJournal(walDir, jopts)
	if err != nil {
		return err
	}
	rcfg := service.Config{Procs: machine, Scheduler: "MQB", Obs: obs.NewTracer(), Metrics: obs.NewRegistry()}
	_, err = service.RecoverCore(rcfg, recs)
	sp.end(s)
	if err := errors.Join(err, jn2.Close()); err != nil {
		return err
	}
	rfp, err := service.Fingerprint(rcfg.Obs.Events(), rcfg.Metrics)
	r.op(err)
	r.check(rfp == fp, "journal recovery fingerprint %s, before %s", rfp, fp)
	var dirBytes int64
	entries, err := os.ReadDir(walDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			dirBytes += info.Size()
		}
	}

	r.set("wal.record_s", "s", sp.seconds("wal.record"), frames)
	r.set("wal.frames", "count", float64(frames), 1)
	r.set("wal.dir_bytes", "bytes", float64(dirBytes), 1)
	r.set("wal.recover_s", "s", sp.seconds("wal.recover"), 1)
	r.set("http.decode_s", "s", sp.seconds("http.decode"), 1)
	r.set("http.overhead_s", "s", httpSubmit-sp.seconds("pipeline.submit"), 1)
	r.set("service.submit_s", "s", sp.seconds("service.submit"), 1)
	r.set("service.advance_s", "s", sp.seconds("service.advance"), 1)
	r.set("service.fingerprint_s", "s", sp.seconds("service.fingerprint"), 1)
	decisions, peak := streamCounts(events)
	r.set("service.decisions", "count", float64(decisions), 1)
	coreS := sp.seconds("service.submit") + sp.seconds("service.advance") - build
	r.set("service.ns_per_decision", "ns", coreS*1e9/float64(decisions), decisions)
	r.set("service.backlog_peak", "count", float64(peak), 1)
	obsLayers(r, events)
	return nil
}
