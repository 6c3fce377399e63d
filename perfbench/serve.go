package main

// The serve_restaurant and serve_live workloads: `renuver compile` builds
// an artifact from the Restaurant base, `renuver serve -artifact` boots
// from it with default flags, and held-out tuples are POSTed to
// /v1/impute over loopback HTTP — single tuples in an open loop, then
// 16-tuple batches in a closed loop. serve_live adds a steady stream of
// /v1/delta writes beside the reads.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// Load shape. The single-tuple open loop runs at a fixed rate of about
// half a core (a request costs 4–5 ms of server CPU); at 120/s its half
// of a 20 s run sends each of the 1200 requests once. The load
// generator holds at most maxConns connections, the CPU count of the
// 2-vCPU VM the bounds were set on. The batch closed loop has one
// client: on that VM a second one competed with the server for the CPUs
// and measured 252 instead of 290 tuples/s and 7.0 instead of 4.3 ms of
// server CPU per tuple. serve_live gives the writer its own connection
// and sends single-tuple reads at half the rate, so its one reader
// connection is as busy as each of serve_restaurant's two: at the full
// rate one connection was busy about 95 % of the time and the open loop
// ran 140 ms late on average.
const (
	readRate       = 120.0 // single-tuple requests per second
	liveReadRate   = readRate / maxConns
	deltaRate      = 20.0 // serve_live writes per second
	batchSize      = 16
	maxConns       = 2
	warmUpRequests = 200
	replaySlice    = 200                           // requests per in-process replay pass
	readsPerDelta  = int(liveReadRate / deltaRate) // replay interleaving
)

// serverProc is a running `renuver serve`.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error
	once   sync.Once
}

// listenLine matches the server's "listening" log line.
var listenLine = regexp.MustCompile(`msg=listening addr=(\S+)`)

// bootLog receives the server's stderr: it reports the listen address
// once, keeps the lines before it for boot-failure messages, and
// discards the per-request log lines after it.
type bootLog struct {
	mu    sync.Mutex
	buf   []byte
	found bool
	addr  chan string
}

func (w *bootLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.found {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if m := listenLine.FindSubmatch(w.buf); m != nil {
		w.found = true
		w.addr <- string(m[1])
	}
	return len(p), nil
}

func (w *bootLog) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.buf)
}

// startServer boots `renuver serve -artifact` on an ephemeral loopback
// port and returns once /healthz answers.
func startServer(ctx context.Context, bin, artifact string) (*serverProc, error) {
	log := &bootLog{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "serve", "-artifact", artifact, "-metrics-addr", "127.0.0.1:0")
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	select {
	case addr := <-log.addr:
		s.url = "http://" + addr
	case <-s.exited:
		return nil, fmt.Errorf("renuver serve exited while booting: %v: %s", s.err, log.text())
	case <-timeout.C:
		s.stop()
		return nil, fmt.Errorf("renuver serve did not listen within 60s: %s", log.text())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	client := newClient(1)
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("renuver serve exited before /healthz answered: %v", s.err)
		case <-timeout.C:
			s.stop()
			return nil, errors.New("renuver serve: /healthz did not answer within 60s")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the server to drain and waits for it to exit, killing it
// if it takes longer than ten seconds.
func (s *serverProc) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// cpu returns the server's user+system CPU time so far. /proc reports
// it in USER_HZ ticks, which are 100 per second on Linux.
func (s *serverProc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSSKiB returns the server's peak resident set (VmHWM).
func (s *serverProc) peakRSSKiB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends a JSON body and returns the status and the whole reply.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// harness is one booted serve workload: its inputs, the server, and
// what a correct reply looks like.
type harness struct {
	live     bool
	in       *serveInputs
	schema   *dataset.Schema
	srv      *serverProc
	artifact []byte
	expected [][]byte // per request: the in-process Session.Impute result
	rules    int      // |Σ| of the artifact
	corrupt  atomic.Bool

	mu     sync.Mutex
	served []dataset.Tuple // per request: the last tuple served in the timed phase
}

// serveSetup is everything before the timed phase: input generation,
// `renuver compile`, `renuver serve -artifact` boot until /healthz
// answers, and a warm-up pass over the first warmUpRequests requests.
// It returns the warm-up replies for checking.
func serveSetup(ctx context.Context, cfg config, work string) (*harness, []reply, error) {
	in, err := makeServeInputs(cfg)
	if err != nil {
		return nil, nil, err
	}
	basePath := filepath.Join(work, "base.csv")
	artPath := filepath.Join(work, "base.rnv")
	if err := dataset.WriteCSVFile(basePath, in.base); err != nil {
		return nil, nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, cfg.renuver, "compile", "-in", basePath, "-out", artPath,
		"-threshold", fmt.Sprint(cleanThreshold))
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("renuver compile: %w: %s", err, stderr.Bytes())
	}
	srv, err := startServer(ctx, cfg.renuver, artPath)
	if err != nil {
		return nil, nil, err
	}
	client := newClient(1)
	warm := make([]reply, min(warmUpRequests, len(in.requests)))
	for i, r := range in.requests[:len(warm)] {
		if warm[i].status, warm[i].body, err = post(ctx, client, srv.url+"/v1/impute", r.body); err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return &harness{live: cfg.workload == "serve_live", in: in, srv: srv}, warm, nil
}

// reply is one HTTP reply.
type reply struct {
	status int
	body   []byte
}

// prepare loads the artifact the server booted from into an in-process
// session and computes the reply every request must get at epoch 0.
func (h *harness) prepare(ctx context.Context, work string) error {
	data, err := os.ReadFile(filepath.Join(work, "base.rnv"))
	if err != nil {
		return err
	}
	sess, err := core.NewSessionFromArtifact(data)
	if err != nil {
		return err
	}
	h.artifact = data
	h.rules = sess.Artifact().Rules
	h.schema = sess.BaseView().Relation().Schema()
	h.expected = make([][]byte, len(h.in.requests))
	h.served = make([]dataset.Tuple, len(h.in.requests))
	for i, r := range h.in.requests {
		rel := dataset.NewRelation(h.schema)
		if err := rel.Append(r.tuple); err != nil {
			return err
		}
		res, err := sess.Impute(ctx, rel)
		if err != nil {
			return err
		}
		if h.expected[i], err = tupleJSON(h.schema, res.Relation.Row(0)); err != nil {
			return err
		}
	}
	return nil
}

// keep records tuples as the last ones served for requests idx.
func (h *harness) keep(idx []int, tuples []dataset.Tuple) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for j, i := range idx {
		h.served[i] = tuples[j]
	}
}

// scoreServed scores the last tuple served for each request in the timed
// phase against the held-out truth. On serve_restaurant every such tuple
// equals the epoch-0 imputation; on serve_live they are what the server
// answered while the writes ran.
func (h *harness) scoreServed(out *outcome) {
	h.mu.Lock()
	defer h.mu.Unlock()
	imputed := dataset.NewRelation(h.schema)
	var injected []eval.Injected
	for i, t := range h.served {
		if t == nil {
			continue
		}
		injected = append(injected, eval.Injected{
			Cell:  dataset.Cell{Row: imputed.Len(), Attr: h.in.requests[i].blank},
			Truth: h.in.requests[i].truth,
		})
		imputed.MustAppend(t)
	}
	setQuality(out, eval.Score(imputed, injected, experiments.Rules("restaurant")))
}

// batchReply is the /v1/impute reply.
type batchReply struct {
	Results []struct {
		Tuple json.RawMessage `json:"tuple"`
		Error string          `json:"error"`
	} `json:"results"`
}

// checkReply reports whether a /v1/impute reply answers requests idx
// correctly, and returns the served tuples. With exact, each served tuple
// must equal the in-process Session.Impute result byte for byte; reads
// racing deltas (whose epoch is unknown) must instead keep every observed
// cell of their request.
func (h *harness) checkReply(status int, body []byte, idx []int, exact bool) ([]dataset.Tuple, error) {
	if h.corrupt.CompareAndSwap(true, false) {
		body = bytes.Replace(body, []byte(`"Name":"`), []byte(`"Name":"~`), 1)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, body)
	}
	var rep batchReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, err
	}
	if len(rep.Results) != len(idx) {
		return nil, fmt.Errorf("%d results for %d tuples", len(rep.Results), len(idx))
	}
	tuples := make([]dataset.Tuple, len(idx))
	for j, r := range rep.Results {
		i := idx[j]
		if r.Error != "" {
			return nil, fmt.Errorf("tuple %d: %s", i, r.Error)
		}
		if exact && !bytes.Equal(r.Tuple, h.expected[i]) {
			return nil, fmt.Errorf("request %d: served %s, in-process %s", i, r.Tuple, h.expected[i])
		}
		got, err := decodeTuple(h.schema, r.Tuple)
		if err != nil {
			return nil, err
		}
		for a, v := range h.in.requests[i].tuple {
			if !v.IsNull() && !got[a].Equal(v) {
				return nil, fmt.Errorf("request %d: attribute %d changed from %v to %v", i, a, v, got[a])
			}
		}
		tuples[j] = got
	}
	return tuples, nil
}

// checkWarmUp checks the epoch-0 warm-up replies exactly.
func (h *harness) checkWarmUp(out *outcome, warm []reply) {
	for i, r := range warm {
		_, err := h.checkReply(r.status, r.body, []int{i}, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: warm-up:", err)
		}
		out.check(err == nil)
	}
}

// traffic is what one timed phase measured.
type traffic struct {
	readLat, readLag []float64 // ms, single-tuple open loop, from when due
	batchTuples      int
	batchElapsed     time.Duration
	writeLat         []float64 // ms, serve_live deltas, from when due
	attempted        atomic.Int64
	failed           atomic.Int64
	lastRules        atomic.Int64
}

// account adds the phase's checked requests to out, and fails the run if
// the deltas changed Σ.
func (t *traffic) account(out *outcome, rules int) {
	out.attempted += int(t.attempted.Load())
	out.failed += int(t.failed.Load())
	if r := int(t.lastRules.Load()); r != rules {
		out.problem("Σ drifted from %d to %d rules under steady-state deltas", rules, r)
	}
}

func (t *traffic) check(err error, what string) {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// runTraffic drives the server for dur: the single-tuple open loop for
// the first half, the batch closed loop for the second, and on
// serve_live the delta writer throughout. tr, when not nil, records a
// serve.http span per request.
func (h *harness) runTraffic(ctx context.Context, dur time.Duration, deltas *deltaStream, tr *tracer) *traffic {
	t := &traffic{}
	t.lastRules.Store(int64(h.rules))
	readConns, rate := maxConns, readRate
	var writer sync.WaitGroup
	if h.live {
		readConns, rate = maxConns-1, liveReadRate
		wclient := newClient(1)
		writer.Add(1)
		go func() {
			defer writer.Done()
			t.writeLat, _ = openLoop(ctx, deltaRate, dur, 1, func(k int) {
				op, err := deltas.next()
				if err == nil {
					err = h.sendDelta(ctx, wclient, op, tr, t)
				}
				t.check(err, "delta")
			})
		}()
	}

	client := newClient(readConns)
	exact := !h.live
	half := dur / 2
	t.readLat, t.readLag = openLoop(ctx, rate, half, readConns, func(k int) {
		i := k % len(h.in.requests)
		start := time.Now()
		status, body, err := post(ctx, client, h.srv.url+"/v1/impute", h.in.requests[i].body)
		tr.record("serve.http", start, time.Now(), map[string]float64{"kind": kindSingle, "tuples": 1})
		if err == nil {
			var served []dataset.Tuple
			if served, err = h.checkReply(status, body, []int{i}, exact); err == nil {
				h.keep([]int{i}, served)
			}
		}
		t.check(err, "impute")
	})

	var tuples atomic.Int64
	t.batchElapsed = closedLoop(ctx, 1, dur-half, func(k int) {
		body, idx := h.in.batchBody(k, batchSize)
		start := time.Now()
		status, reply, err := post(ctx, client, h.srv.url+"/v1/impute", body)
		tr.record("serve.http", start, time.Now(), map[string]float64{"kind": kindBatch, "tuples": batchSize})
		if err == nil {
			var served []dataset.Tuple
			if served, err = h.checkReply(status, reply, idx, exact); err == nil {
				h.keep(idx, served)
				tuples.Add(batchSize)
			}
		}
		t.check(err, "batch impute")
	})
	t.batchTuples = int(tuples.Load())
	writer.Wait()
	return t
}

// sendDelta posts one write and checks that the base keeps its size and
// Σ its rules.
func (h *harness) sendDelta(ctx context.Context, c *http.Client, op deltaOp, tr *tracer, t *traffic) error {
	start := time.Now()
	status, body, err := post(ctx, c, h.srv.url+"/v1/delta", op.body)
	tr.record("serve.http", start, time.Now(), map[string]float64{"kind": kindDelta, "tuples": 0})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var res core.DeltaResult
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	t.lastRules.Store(int64(res.Rules))
	if res.Rows != h.in.base.Len() {
		return fmt.Errorf("base has %d rows after the delta, want %d", res.Rows, h.in.base.Len())
	}
	return nil
}

// openLoop issues rate×dur calls on a fixed schedule, with at most conns
// in flight; a call waits for a free connection if all are busy. It
// returns each call's latency measured from when it was due (so a stall
// also counts against the calls queued behind it) and how late each was
// sent, both in milliseconds.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, call func(k int)) (lat, lag []float64) {
	n := max(1, int(rate*dur.Seconds()))
	lat, lag = make([]float64, n), make([]float64, n)
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return lat[:k], lag[:k]
			}
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return lat[:k], lag[:k]
		}
		lag[k] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(k)
			lat[k] = ms(time.Since(due))
			<-sem
		}()
	}
	return lat, lag
}

// closedLoop runs clients that each send their next call as soon as the
// previous one returns, until dur has passed; it returns the elapsed
// time including the last calls.
func closedLoop(ctx context.Context, clients int, dur time.Duration, call func(k int)) time.Duration {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				call(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// benchServe is the end-to-end run of a serve workload.
func benchServe(ctx context.Context, cfg config, work string) (*outcome, error) {
	out := newOutcome()
	var h *harness
	var warm []reply
	defer func() {
		if h != nil {
			h.srv.stop()
		}
	}()
	var setups []float64
	repeats := setupRepeats
	if cfg.tiny {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if h != nil {
			h.srv.stop()
			h = nil
		}
		start := time.Now()
		var err error
		if h, warm, err = serveSetup(ctx, cfg, work); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.values["setup_s"] = median(setups)
	if err := h.prepare(ctx, work); err != nil {
		return nil, err
	}
	h.corrupt.Store(cfg.corrupt)
	h.checkWarmUp(out, warm)

	cpu0, err := h.srv.cpu()
	if err != nil {
		return nil, err
	}
	t := h.runTraffic(ctx, time.Duration(cfg.seconds)*time.Second, newDeltaStream(h.in.base, cfg.seed), nil)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cpu1, err := h.srv.cpu()
	if err != nil {
		return nil, err
	}
	peak, err := h.srv.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	t.account(out, h.rules)
	h.scoreServed(out)

	op := t.readLat
	if h.live {
		op = t.writeLat
	}
	out.opSamples = len(op)
	out.values["op_p50_ms"] = median(op)
	out.values["op_p95_ms"] = percentile(op, 0.95)
	out.values["tuples_per_s"] = float64(t.batchTuples) / t.batchElapsed.Seconds()
	out.values["peak_rss_mb"] = float64(peak) / 1024
	served := len(t.readLat) + t.batchTuples
	out.values["cpu_us_per_tuple"] = float64((cpu1 - cpu0).Microseconds()) / float64(max(1, served))
	return out, nil
}

// traceServe is the traced run of a serve workload: the compile pipeline
// and the request (and delta) stream replayed in-process with spans
// around each layer call, then the same HTTP traffic as the end-to-end
// run with a span per request.
func traceServe(ctx context.Context, cfg config, work string, env environment, spansPath string) (*outcome, error) {
	out := newOutcome()
	h, warm, err := serveSetup(ctx, cfg, work)
	if err != nil {
		return nil, err
	}
	defer h.srv.stop()
	if err := h.prepare(ctx, work); err != nil {
		return nil, err
	}
	h.checkWarmUp(out, warm)
	tr := newTracer()
	rec := obs.NewMetrics()
	defer obs.SetGlobalEnabled(false)

	traced, err := traceCompile(ctx, tr, rec, out, h, filepath.Join(work, "base.csv"))
	if err != nil {
		return nil, err
	}
	plain, err := core.NewSessionFromArtifact(h.artifact)
	if err != nil {
		return nil, err
	}
	if err := h.replay(ctx, cfg, tr, rec, out, plain, traced); err != nil {
		return nil, err
	}

	obs.SetGlobalEnabled(false)
	t := h.runTraffic(ctx, time.Duration(cfg.seconds)*time.Second/2, newDeltaStream(h.in.base, cfg.seed), tr)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	t.account(out, h.rules)
	tr.record("bench.open_loop", time.Now(), time.Now(), map[string]float64{"lag_mean_ms": mean(t.readLag)})
	if err := h.scrapeMetrics(ctx, tr); err != nil {
		return nil, err
	}

	if err := writeSpans(spansPath, env, tr.spans); err != nil {
		return nil, err
	}
	spans, err := readSpans(spansPath)
	if err != nil {
		return nil, err
	}
	out.values = layerMetrics(spans)
	if end := out.values["rfd.sigma_size_end"]; end != out.values["rfd.sigma_size"] {
		out.problem("Σ drifted from %v to %v rules under steady-state deltas", out.values["rfd.sigma_size"], end)
	}
	return out, nil
}

// traceCompile replays `renuver compile` and the artifact boot in-process
// under a setup trace, checks that it reproduces the CLI's artifact byte
// for byte, and returns the booted session (recording into rec).
func traceCompile(ctx context.Context, tr *tracer, rec *obs.Metrics, out *outcome, h *harness, basePath string) (*core.Session, error) {
	obs.SetGlobalEnabled(true)
	root := tr.root("setup")
	defer tr.end(root, nil)

	sp := tr.child(root, "dataset.read_csv")
	base, err := dataset.ReadCSVFile(basePath)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	sp = tr.child(root, "engine.precompile")
	sess, err := core.NewSession(base, nil)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	before := rec.Snapshot()
	sp = tr.child(root, "discovery.discover")
	sigma, err := sess.Discover(ctx, discovery.Config{MaxThreshold: cleanThreshold, MaxLHS: 2, Recorder: rec})
	if err != nil {
		return nil, err
	}
	tr.end(sp, discoveryAttrs(rec, before, len(sigma)))
	if sess, err = sess.WithSigma(sigma); err != nil {
		return nil, err
	}
	sp = tr.child(root, "artifact.compile")
	data, err := sess.EncodeArtifact()
	tr.end(sp, func() map[string]float64 { return map[string]float64{"bytes": float64(len(data))} })
	if err != nil {
		return nil, err
	}
	out.check(bytes.Equal(data, h.artifact))
	sp = tr.child(root, "artifact.load")
	loaded, err := core.NewSessionFromArtifact(h.artifact, core.WithRecorder(rec))
	tr.end(sp, nil)
	return loaded, err
}

// replay sends the request stream through Session.Impute in-process for
// half the run, alternating an untraced pass on plain with a traced pass
// on traced; serve_live interleaves one ApplyDelta per readsPerDelta
// reads on each. Both sessions see the same deltas in the same order, so
// a traced pass must return exactly what the untraced pass before it did.
func (h *harness) replay(ctx context.Context, cfg config, tr *tracer, rec *obs.Metrics, out *outcome, plain, traced *core.Session) error {
	streams := [2]*deltaStream{newDeltaStream(h.in.base, cfg.seed), newDeltaStream(h.in.base, cfg.seed)}
	sessions := [2]*core.Session{plain, traced}
	var untraced [][]byte
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second / 2)
	for pass := 0; pass < 2 || pass%2 == 1 || time.Now().Before(deadline); pass++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		side := pass % 2
		var ptr *tracer
		if side == 1 {
			ptr = tr
		}
		obs.SetGlobalEnabled(side == 1)
		// Each untraced/traced pair replays the next slice of the stream.
		first := pass / 2 * replaySlice
		outs := make([][]byte, min(replaySlice, len(h.in.requests)))
		start := time.Now()
		for i := range outs {
			r := h.in.requests[(first+i)%len(h.in.requests)]
			if h.live && i%readsPerDelta == 0 {
				op, err := streams[side].next()
				if err != nil {
					return err
				}
				if err := traceDelta(ctx, ptr, rec, sessions[side], op.delta); err != nil {
					return err
				}
			}
			rel := dataset.NewRelation(h.schema)
			if err := rel.Append(r.tuple); err != nil {
				return err
			}
			root := ptr.root("request")
			res, err := traceImpute(ptr, root, func() (*core.Result, error) { return sessions[side].Impute(ctx, rel) })
			ptr.end(root, nil)
			if err != nil {
				return err
			}
			if outs[i], err = tupleJSON(h.schema, res.Relation.Row(0)); err != nil {
				return err
			}
		}
		tr.record("bench.replay", start, time.Now(),
			map[string]float64{"traced": float64(side), "calls": float64(len(outs))})
		if side == 0 {
			untraced = outs
			continue
		}
		for i := range outs {
			out.check(bytes.Equal(outs[i], untraced[i]))
		}
	}
	return nil
}

// traceDelta applies one delta under a core.apply_delta span whose
// attributes are the DeltaResult and the recorder's delta phases.
func traceDelta(ctx context.Context, tr *tracer, rec *obs.Metrics, sess *core.Session, d core.Delta) error {
	var before obs.Snapshot
	if tr != nil {
		before = rec.Snapshot()
	}
	root := tr.root("delta")
	defer tr.end(root, nil)
	sp := tr.child(root, "core.apply_delta")
	res, err := sess.ApplyDelta(ctx, d)
	if err != nil {
		return err
	}
	tr.end(sp, func() map[string]float64 {
		after := rec.Snapshot()
		phase := func(name string) float64 {
			return float64(after.Phases[name].Nanos - before.Phases[name].Nanos)
		}
		return map[string]float64{
			"build_ns":                 phase("delta_build"),
			"revalidate_ns":            phase("delta_revalidate"),
			"index_ns":                 phase("delta_index"),
			"sigma_dropped":            float64(res.SigmaDropped),
			"sigma_tightened":          float64(res.SigmaTightened),
			"index_rebuilt":            b2f(res.IndexRebuilt),
			"cache_shards_invalidated": float64(res.InvalidatedCacheShards),
			"rules":                    float64(res.Rules),
		}
	})
	return nil
}

// scrapeMetrics reads the server's admission counters from /metrics
// into a serve.metrics span.
func (h *harness) scrapeMetrics(ctx context.Context, tr *tracer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.srv.url+"/v1/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := newClient(1).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	wait := snap.Histograms["serve_queue_wait_micros"]
	now := time.Now()
	tr.record("serve.metrics", now, now, map[string]float64{
		"queue_wait_sum_us": wait.Sum,
		"queue_wait_count":  float64(wait.Count),
		"rejected":          float64(snap.Counters["serve_rejected"]),
	})
	return nil
}
