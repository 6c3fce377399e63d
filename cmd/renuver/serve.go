package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"mime"
	"net"
	"net/http"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	renuver "repro"
)

// runServe is the `renuver serve` mode: a long-lived imputation service
// built on a renuver.Session. The base instance is compiled once at
// startup (columnar form, interning tables, shared distance cache); Σ is
// discovered on the compiled base (or loaded from a file); every request
// then serves against those read-only artifacts with per-request state
// only. A bounded admission gate caps concurrent runs at -pool-size and
// sheds load with 429 once -queue-depth requests are already waiting;
// each admitted request runs under the -request-timeout deadline, and
// SIGTERM/SIGINT drains in-flight runs for up to -drain-timeout before
// exiting.
//
// Endpoints (all available both under /v1/ and at the unversioned root):
//
//	POST /v1/impute     CSV in the body -> imputed CSV; the run's
//	                    Result.Stats come back in the X-Renuver-Stats
//	                    header as compact JSON. Errors are a JSON
//	                    envelope {"error","code"}: 405 on non-POST, 415
//	                    on non-CSV content types, 429 when the queue is
//	                    full, 504 when the deadline expires mid-run.
//	                    With Content-Type: application/json the same
//	                    endpoint runs in batch mode — many independent
//	                    tuples in one request, admitted once and traced
//	                    as per-tuple child spans, with per-tuple error
//	                    envelopes inside a 200 — see serve_batch.go.
//	POST /v1/delta      JSON mutation batch (inserts / updates / deletes)
//	                    applied atomically to the session base as a new
//	                    epoch; in-flight imputations keep the epoch they
//	                    pinned. Answers the DeltaResult as JSON — see
//	                    serve_delta.go.
//	GET  /v1/metrics    cumulative counters/histograms/phase timings —
//	                    JSON by default, Prometheus text exposition
//	                    format when the Accept header asks for it.
//	GET  /v1/trace/last the most recent sampled cell's decision trace as
//	                    a JSON event array (404 when tracing is off).
//	GET  /debug/spans   the last -span-ring completed request span trees
//	                    as JSON (404 when -span-ring is 0). Every request
//	                    runs under a span trace: a valid inbound W3C
//	                    traceparent is joined, the response carries
//	                    X-Request-Id and a traceparent, and per-phase
//	                    child spans record the run's internals.
//	GET  /healthz       liveness probe.
//	GET  /debug/pprof/  CPU/heap/goroutine profiles.
//
// Flag defaulting follows the repository rule: the zero value picks the
// documented default, negatives are rejected at flag-parse time.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr         = fs.String("metrics-addr", "127.0.0.1:8080", "address to serve /impute, /metrics and /debug/pprof on")
		in           = fs.String("in", "", "base CSV/JSONL compiled into the session at startup (required unless -artifact)")
		artifactPath = fs.String("artifact", "", "compiled session artifact (renuver compile output) to boot from instead of -in")
		rfds         = fs.String("rfds", "", "RFDc set file; discovered from the base when omitted")
		threshold    = fs.Float64("threshold", 15, "discovery threshold limit when -rfds is omitted")
		maxLHS       = fs.Int("maxlhs", 2, "discovery LHS size limit when -rfds is omitted")
		order        = fs.String("order", "asc", "RHS-threshold cluster order: asc or desc")
		verify       = fs.String("verify", "lhs", "IS_FAULTLESS scope: lhs, both, off")
		workers      = fs.Int("workers", 0, "parallel workers for discovery and imputation candidate search (0 = serial candidate search, all CPUs for discovery)")
		shards       = fs.Int("shards", 0, "discovery pattern shards and donor-pool sub-indexes (0 = unsharded; output identical for any value)")
		traceSample  = fs.Int("trace-sample", 0, "trace every Nth cell's imputation decisions (0 = tracing off, 1 = every cell)")
		traceCells   = fs.Int("trace-cells", 0, "cell traces retained in the ring (0 = default 256)")
		poolSize     = fs.Int("pool-size", 0, "concurrent imputation runs (0 = number of CPUs)")
		queueDepth   = fs.Int("queue-depth", 0, "requests allowed to wait for a pool slot before 429 (0 = 2x pool size)")
		reqTimeout   = fs.Duration("request-timeout", 30*time.Second, "per-request deadline (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "grace for in-flight runs on SIGTERM before the server exits")
		spanRing     = fs.Int("span-ring", 64, "completed request span traces retained for /debug/spans (0 = disable the endpoint)")
		logJSON      = fs.Bool("log-json", false, "emit request logs as JSON lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *artifactPath == "" && *in == "" {
		fs.Usage()
		return fmt.Errorf("serve: -in or -artifact is required")
	}
	if *artifactPath != "" && (*in != "" || *rfds != "") {
		// The artifact already carries the compiled base and Σ; mixing in
		// a second source would silently serve something else.
		return fmt.Errorf("serve: -artifact is exclusive with -in and -rfds")
	}
	for name, v := range map[string]int{
		"-pool-size": *poolSize, "-queue-depth": *queueDepth,
		"-trace-sample": *traceSample, "-trace-cells": *traceCells, "-span-ring": *spanRing,
	} {
		if v < 0 {
			return fmt.Errorf("serve: %s must be >= 0, got %d", name, v)
		}
	}
	if err := validateParallelism("-workers", *workers); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := validateParallelism("-shards", *shards); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if *reqTimeout < 0 || *drainTimeout < 0 {
		return fmt.Errorf("serve: timeouts must be >= 0")
	}
	logger := newLogger(*logJSON)

	opts, err := imputerOptions(*order, *verify, *workers, *shards)
	if err != nil {
		return err
	}
	renuver.SetGlobalMetricsEnabled(true)
	metrics := renuver.GlobalMetrics()
	opts = append(opts, renuver.WithRecorder(metrics))
	var tracer *renuver.RingTracer
	if *traceSample > 0 {
		tracer = renuver.NewRingTracer(*traceCells, *traceSample)
		opts = append(opts, renuver.WithTracer(tracer))
	}

	var sess *renuver.Session
	if *artifactPath != "" {
		// Instant boot: the compiled base, candidate index, and Σ decode
		// straight from the artifact's flat slabs — no discovery, no
		// compile. This is what lets N stateless replicas come up behind
		// a load balancer in milliseconds.
		bootStart := time.Now()
		if sess, err = renuver.LoadSession(*artifactPath, opts...); err != nil {
			return err
		}
		ai := sess.Artifact()
		logger.Info("session ready", "source", "artifact", "path", *artifactPath,
			"format_version", ai.FormatVersion,
			"checksum", fmt.Sprintf("%016x", ai.Checksum),
			"rfds", ai.Rules, "base_tuples", ai.Tuples,
			"boot", time.Since(bootStart).Round(time.Microsecond).String())
	} else {
		base, err := loadRelation(*in)
		if err != nil {
			return err
		}
		// Compile the base once; Σ either loads from a file or is mined
		// from the compiled view (which also warms the shared distance
		// cache the requests will read).
		if sess, err = renuver.NewSession(base, nil, opts...); err != nil {
			return err
		}
		var sigma renuver.RFDSet
		if *rfds != "" {
			sigma, err = renuver.LoadRFDsFile(*rfds, base.Schema())
		} else {
			sigma, err = sess.Discover(context.Background(), renuver.DiscoveryOptions{
				MaxThreshold: *threshold, MaxLHS: *maxLHS, Workers: *workers,
				Shards: *shards, Recorder: metrics,
			})
		}
		if err != nil {
			return err
		}
		if sess, err = sess.WithSigma(sigma); err != nil {
			return err
		}
		logger.Info("session ready", "source", "compile", "rfds", len(sigma),
			"base_tuples", base.Len(), "schema", base.Schema().String())
	}

	limits := serveLimits{
		pool:           *poolSize,
		queue:          *queueDepth,
		requestTimeout: *reqTimeout,
	}
	var ring *renuver.SpanRing
	if *spanRing > 0 {
		ring = renuver.NewSpanRing(*spanRing)
	}
	mux, _ := newServeMux(sess, metrics, tracer, ring, logger, limits)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String(), "tracing", *traceSample > 0,
		"pool", limits.poolSize(), "queue", limits.queueDepth())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		stop()
		logger.Info("signal received, draining", "timeout", drainTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("serve: drain: %w", err)
		}
		logger.Info("drained, exiting")
		return nil
	}
}

// validateParallelism enforces the CLI rule for parallelism-shaped
// flags: 0 means the documented default, negatives and absurdly large
// values (nobody runs 10k workers on one box) are rejected before any
// work starts. It is the shared renuver.CheckParallelism rule, so the
// flags, the imputer options, and discovery all enforce one bound.
func validateParallelism(name string, v int) error {
	return renuver.CheckParallelism(name, v)
}

// imputerOptions translates the shared CLI flags into imputer options.
// workers and shards follow the uniform defaulting rule — 0 means the
// default (serial tuple scans, unsharded donor search), negatives are
// rejected here so both the one-shot and serve entry points refuse them
// before any work starts.
func imputerOptions(order, verify string, workers, shards int) ([]renuver.Option, error) {
	var opts []renuver.Option
	switch order {
	case "asc":
	case "desc":
		opts = append(opts, renuver.WithClusterOrder(renuver.DescendingThreshold))
	default:
		return nil, fmt.Errorf("unknown -order %q", order)
	}
	switch verify {
	case "lhs":
	case "both":
		opts = append(opts, renuver.WithVerifyMode(renuver.VerifyBothSides))
	case "off":
		opts = append(opts, renuver.WithVerifyMode(renuver.VerifyOff))
	default:
		return nil, fmt.Errorf("unknown -verify %q", verify)
	}
	if workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	if workers > 1 {
		opts = append(opts, renuver.WithWorkers(workers))
	}
	if shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0, got %d", shards)
	}
	if shards > 1 {
		opts = append(opts, renuver.WithDonorShards(shards))
	}
	return opts, nil
}

// serveLimits is the serve-mode capacity configuration. Zero fields pick
// the documented defaults.
type serveLimits struct {
	pool           int // concurrent runs; 0 = NumCPU
	queue          int // waiting requests before 429; 0 = 2*pool
	requestTimeout time.Duration
	maxBody        int64 // request body cap in bytes; 0 = maxBodyBytes
}

// maxBodyBytes caps every request body the service reads: a CSV or JSON
// batch on /v1/impute and a delta on /v1/delta. A longer body is
// answered 413 with code too_large.
const maxBodyBytes = 64 << 20

func (l serveLimits) bodyLimit() int64 {
	if l.maxBody > 0 {
		return l.maxBody
	}
	return maxBodyBytes
}

// writeBodyError answers a request whose body could not be read or
// parsed: 413 too_large when it ran past the body cap, otherwise 400
// bad_request with msg prefixed to the cause.
func writeBodyError(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", msg+err.Error())
}

func (l serveLimits) poolSize() int {
	if l.pool > 0 {
		return l.pool
	}
	return runtime.NumCPU()
}

func (l serveLimits) queueDepth() int {
	if l.queue > 0 {
		return l.queue
	}
	return 2 * l.poolSize()
}

// errQueueFull is the admission gate's shed signal.
var errQueueFull = errors.New("admission queue full")

// gate is the bounded admission control: at most pool requests run at
// once, at most depth more wait for a slot, everything beyond that is
// shed immediately with errQueueFull. The waiting count at each arrival
// is recorded into the queue-depth histogram, so the metrics surface
// shows how close the service runs to shedding.
type gate struct {
	slots   chan struct{}
	waiting atomic.Int64
	depth   int64
	metrics *renuver.MetricsRecorder
}

func newGate(limits serveLimits, metrics *renuver.MetricsRecorder) *gate {
	return &gate{
		slots:   make(chan struct{}, limits.poolSize()),
		depth:   int64(limits.queueDepth()),
		metrics: metrics,
	}
}

// acquire admits the request or reports why it cannot: errQueueFull when
// the queue is over depth, the context's error when the client gave up
// while queued. On success the returned release function must be called
// exactly once. Every admitted request records how long it waited for
// its slot (the SLO-facing queue-wait distribution); shed and abandoned
// requests do not — they never got a slot to wait for.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	enqueued := time.Now()
	w := g.waiting.Add(1)
	g.metrics.Observe(renuver.HistServeQueueDepth, float64(w-1))
	defer g.waiting.Add(-1)
	admitted := func() func() {
		g.metrics.Observe(renuver.HistServeQueueWaitMicros,
			float64(time.Since(enqueued).Microseconds()))
		return func() { <-g.slots }
	}
	if w > g.depth {
		// Fast path first: a free slot admits even a nominally-full queue,
		// since the request would not actually wait.
		select {
		case g.slots <- struct{}{}:
			return admitted(), nil
		default:
			return nil, errQueueFull
		}
	}
	select {
	case g.slots <- struct{}{}:
		return admitted(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// writeError emits the uniform JSON error envelope every 4xx/5xx uses.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// csvContentType reports whether the request's Content-Type, when
// present, declares a CSV (or generic text/octet) body. An absent
// header is accepted: curl-style clients rarely set one.
func csvContentType(header string) bool {
	if header == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return false
	}
	switch mt {
	case "text/csv", "application/csv", "text/plain", "application/octet-stream":
		return true
	}
	return false
}

// handleBoth registers the handler under /v1/<path> and its unversioned
// alias /<path>.
func handleBoth(mux *http.ServeMux, path string, h http.Handler) {
	mux.Handle("/v1"+path, h)
	mux.Handle(path, h)
}

// serveRoutes is the fixed label set of the per-route latency histogram;
// routeLabel folds both the /v1 and unversioned aliases onto one label
// and everything unrecognized onto "other", so the family's cardinality
// is bounded no matter what paths clients probe.
var serveRoutes = []string{
	"/impute", "/delta", "/metrics", "/trace/last", "/healthz", "/debug/spans", "/debug/pprof", "other",
}

func routeLabel(path string) string {
	p := strings.TrimPrefix(path, "/v1")
	switch p {
	case "/impute", "/delta", "/metrics", "/trace/last", "/healthz", "/debug/spans":
		return p
	}
	if strings.HasPrefix(p, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

// httpLatencyBounds are the per-route latency buckets, in microseconds:
// 100µs to 60s, the range between a /healthz probe and a request-timeout
// imputation.
var httpLatencyBounds = []float64{100, 1_000, 10_000, 100_000, 1e6, 10e6, 60e6}

// loggerKey carries the request-scoped logger (request id and route
// pre-attached) through the context; reqLogger falls back to the service
// logger for contexts the middleware never saw (tests driving handlers
// directly).
type loggerKey struct{}

func reqLogger(ctx context.Context, fallback *slog.Logger) *slog.Logger {
	if lg, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return lg
	}
	return fallback
}

// statusWriter captures the response status for the root span and the
// latency histogram.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// telemetry is the outermost middleware: it opens the request trace
// (joining an upstream W3C traceparent when the client sent a valid
// one), threads the span and a request-scoped logger through the
// context, answers with the request's identity (X-Request-Id and a
// response traceparent), and on completion finishes the trace into the
// ring and records the route's latency.
func telemetry(next http.Handler, ring *renuver.SpanRing, latency *renuver.HistVec,
	logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		parent, _ := renuver.ParseTraceparent(r.Header.Get("traceparent"))
		ctx, trace := renuver.StartRequest(r.Context(), ring, r.Method+" "+route, parent)
		sc := trace.Context()
		requestID := sc.TraceID.String()
		w.Header().Set("X-Request-Id", requestID)
		w.Header().Set("traceparent", sc.Traceparent())
		ctx = context.WithValue(ctx, loggerKey{},
			logger.With("request_id", requestID, "route", route))

		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		root := trace.Root()
		root.Str("route", route)
		root.Int("status", int64(status))
		trace.Finish()
		latency.ObserveLabel(route, float64(time.Since(start).Microseconds()))
	})
}

// newServeRegistry composes the serve-mode /metrics surface: the shared
// recorder, the per-route latency family, the build-info gauge, and —
// when the session holds a precompiled base — the shared distance
// cache's per-shard counters.
func newServeRegistry(sess *renuver.Session, metrics *renuver.MetricsRecorder) (*renuver.MetricsRegistry, *renuver.HistVec) {
	latency := renuver.NewHistVec("http_request_micros",
		"HTTP request latency per route, microseconds.",
		"route", serveRoutes, httpLatencyBounds)
	reg := renuver.NewMetricsRegistry(metrics)
	reg.Register(latency, renuver.NewConstGauge("build_info",
		"Build and runtime identity; the payload is in the labels.", 1,
		renuver.MetricLabel{Key: "version", Value: version},
		renuver.MetricLabel{Key: "go_version", Value: runtime.Version()},
		renuver.MetricLabel{Key: "levenshtein_kernel", Value: renuver.ActiveKernelName()},
	))
	if ai := sess.Artifact(); ai != nil {
		// The artifact identity the replica serves: the checksum label is
		// what lets a fleet dashboard prove every replica loaded the same
		// compiled session.
		reg.Register(renuver.NewConstGauge("artifact_info",
			"Compiled-session artifact identity; the payload is in the labels.", 1,
			renuver.MetricLabel{Key: "format_version", Value: fmt.Sprintf("v%d", ai.FormatVersion)},
			renuver.MetricLabel{Key: "checksum", Value: fmt.Sprintf("%016x", ai.Checksum)},
			renuver.MetricLabel{Key: "tuples", Value: fmt.Sprintf("%d", ai.Tuples)},
			renuver.MetricLabel{Key: "sigma_rules", Value: fmt.Sprintf("%d", ai.Rules)},
		))
	}
	if sess.BaseView() != nil {
		// The live-session epoch: 0 at boot, +1 per applied /delta. A flat
		// line here means the replica serves exactly what it booted with.
		reg.Register(renuver.NewFuncGauge("session_epoch",
			"Current live-session epoch (deltas applied since boot).",
			func() float64 { return float64(sess.Epoch()) }))
	}
	if sess.CacheShardStats() != nil {
		reg.Register(renuver.NewShardStatsCollector("engine_cache_shard", func() []renuver.ShardStat {
			stats := sess.CacheShardStats()
			out := make([]renuver.ShardStat, len(stats))
			for i, s := range stats {
				out[i] = renuver.ShardStat{Hits: s.Hits, Misses: s.Misses, Merges: s.Merges}
			}
			return out
		}))
	}
	if sess.DonorShardStats() != nil {
		// The scatter-gather donor sweep's per-sub-pool skew view; absent
		// unless the session was built with -shards > 1.
		reg.Register(renuver.NewDonorShardStatsCollector("donor_shard", func() []renuver.DonorShardStat {
			return sess.DonorShardStats()
		}))
	}
	return reg, latency
}

// newServeMux wires the service endpoints over the session; split out so
// tests can drive the handlers without binding a port. The returned gate
// is the handler's admission control (tests saturate it to provoke
// load-shedding). tracer may be nil (tracing off); ring may be nil
// (request-span retention off — /debug/spans then 404s, but requests
// still carry ids and spans for the duration of their run).
func newServeMux(sess *renuver.Session, metrics *renuver.MetricsRecorder,
	tracer *renuver.RingTracer, ring *renuver.SpanRing,
	logger *slog.Logger, limits serveLimits) (http.Handler, *gate) {

	if logger == nil {
		logger = newLogger(false)
	}
	g := newGate(limits, metrics)
	registry, latency := newServeRegistry(sess, metrics)

	mux := http.NewServeMux()
	handleBoth(mux, "/metrics", registry.Handler())
	handleBoth(mux, "/trace/last", renuver.TraceHandler(tracer))
	handleBoth(mux, "/debug/spans", renuver.SpansHandler(ring))
	renuver.MountDebugHandlers(mux)
	handleBoth(mux, "/healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	handleBoth(mux, "/delta", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handleDelta(w, r, sess, g, metrics, limits, logger)
	}))
	handleBoth(mux, "/impute", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				"POST a CSV document to impute it")
			return
		}
		ct := r.Header.Get("Content-Type")
		if jsonContentType(ct) {
			// Batch mode: a JSON body of many tuples, one admission for
			// the whole batch — see serve_batch.go.
			handleBatchImpute(w, r, sess, g, metrics, limits, logger)
			return
		}
		if !csvContentType(ct) {
			writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
				fmt.Sprintf("unsupported Content-Type %q: POST CSV (text/csv) or a JSON batch (application/json)", ct))
			return
		}

		// Admission before parsing: an overloaded server sheds without
		// buffering the body of work it will not do.
		release, err := g.acquire(r.Context())
		if err != nil {
			if errors.Is(err, errQueueFull) {
				metrics.Add(renuver.CtrServeRejected, 1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "queue_full",
					"admission queue full; retry later")
				return
			}
			// The client gave up while queued; nobody is listening, but the
			// envelope keeps intermediaries informed.
			metrics.Add(renuver.CtrServeTimeouts, 1)
			writeError(w, http.StatusServiceUnavailable, "canceled",
				"request abandoned while queued")
			return
		}
		defer release()
		metrics.Add(renuver.CtrServeAccepted, 1)
		lg := reqLogger(r.Context(), logger)

		ctx := r.Context()
		if limits.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, limits.requestTimeout)
			defer cancel()
		}

		rel, err := renuver.LoadCSV(http.MaxBytesReader(w, r.Body, limits.bodyLimit()))
		if err != nil {
			writeBodyError(w, err, "bad CSV: ")
			return
		}
		start := time.Now()
		res, err := sess.Impute(ctx, rel)
		if err != nil {
			if errors.Is(err, renuver.ErrCanceled) {
				metrics.Add(renuver.CtrServeTimeouts, 1)
				lg.Warn("request deadline exceeded",
					"missing", rel.CountMissing(), "elapsed", time.Since(start).String())
				writeError(w, http.StatusGatewayTimeout, "timeout",
					"request deadline exceeded; partial work discarded")
				return
			}
			lg.Error("imputation failed", "error", err)
			writeError(w, http.StatusUnprocessableEntity, "unprocessable",
				"imputation failed: "+err.Error())
			return
		}
		lg.Info("imputed",
			"imputed", res.Stats.Imputed, "missing", res.Stats.MissingCells,
			"donors_scanned", res.Stats.DonorsScanned,
			"faultless_checks", res.Stats.FaultlessChecks,
			"elapsed", time.Since(start).Round(time.Microsecond).String())
		stats, err := json.Marshal(res.Stats)
		if err == nil {
			// Headers must be single-line; compact JSON is.
			w.Header().Set("X-Renuver-Stats", string(stats))
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := renuver.SaveCSV(w, res.Relation); err != nil {
			// Too late for a status change; the truncated body is the
			// only signal left.
			lg.Error("writing response", "error", err)
		}
	}))
	// telemetry sits outermost so panics recover inside the request
	// trace: a 500 still finishes its trace and lands in the histogram.
	return telemetry(recoverPanics(mux, metrics, logger), ring, latency, logger), g
}

// recoverPanics isolates handler panics: one poisoned request answers
// 500 with the error envelope instead of tearing the whole process (and
// every other in-flight request) down.
func recoverPanics(next http.Handler, metrics *renuver.MetricsRecorder, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				metrics.Add(renuver.CtrServePanics, 1)
				logger.Error("handler panic", "panic", fmt.Sprint(p), "path", r.URL.Path)
				writeError(w, http.StatusInternalServerError, "internal", "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}
