package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/discovery"
	"repro/internal/engine"
)

// sessionRequest builds a small request instance over the benchRelation
// schema with two recoverable missing cells (a Phone and a City).
func sessionRequest(tb testing.TB) *dataset.Relation {
	tb.Helper()
	rel, err := dataset.ReadCSVString(`Name,City,Phone,Type,Class
Granita 0,Malibu,310/456-0488,Californian,6
Granita 0,Malibu,,Californian,6
Citrus 0,,213/857-0034,Californian,6
Citrus 0,Los Angeles,213/857-0034,Californian,6
`)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// TestSessionDonorPoolMatchesImputeWithDonors: a base-backed Session
// must produce byte-identical results to the one-shot donor-pool path —
// the tiered view is an optimization, not a semantic change.
func TestSessionDonorPoolMatchesImputeWithDonors(t *testing.T) {
	base := benchRelation(t, 8)
	sigma := figure1Sigma(t, base.Schema())
	req := sessionRequest(t)

	oneShot, err := New(sigma).ImputeWithDonorsContext(context.Background(), req, []*dataset.Relation{base})
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := sess.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	if !oneShot.Relation.Equal(viaSession.Relation) {
		t.Error("session result diverged from ImputeWithDonors")
	}
	if oneShot.Stats.Imputed != viaSession.Stats.Imputed ||
		oneShot.Stats.MissingCells != viaSession.Stats.MissingCells {
		t.Errorf("stats diverged: one-shot %+v, session %+v", oneShot.Stats, viaSession.Stats)
	}
	if viaSession.Stats.Imputed == 0 {
		t.Error("fixture imputed nothing; the parity check is vacuous")
	}
}

// TestSessionSelfContainedMatchesImpute: with a nil base each request is
// identical to the classic one-shot Impute.
func TestSessionSelfContainedMatchesImpute(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	plain, err := New(sigma).Impute(rel)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(nil, sigma)
	if err != nil {
		t.Fatal(err)
	}
	viaSession, err := sess.Impute(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Relation.Equal(viaSession.Relation) {
		t.Error("self-contained session diverged from Impute")
	}
}

// TestSessionExpiredContextFastPath: an already-expired context must
// come back in O(1) — under 50ms regardless of input size — with the
// typed sentinel and a well-formed empty result.
func TestSessionExpiredContextFastPath(t *testing.T) {
	base := benchRelation(t, 400) // 2000 tuples
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRelation(t, 200) // 1000 tuples, 200 missing cells

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := sess.Impute(ctx, req)
	elapsed := time.Since(start)

	if elapsed > 50*time.Millisecond {
		t.Errorf("expired-context Impute took %v, want <50ms", elapsed)
	}
	if !errors.Is(err, engine.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
	}
	if res == nil {
		t.Fatal("expired-context result is nil")
	}
	if res.Stats.Imputed+res.Stats.Unimputed != res.Stats.MissingCells {
		t.Errorf("fast-path stats inconsistent: %+v", res.Stats)
	}
}

// TestSessionDeadlinePartialStats: mid-run expiry returns promptly with
// the typed error and a partial result whose counters reconcile and
// whose recorded imputations are actually applied.
func TestSessionDeadlinePartialStats(t *testing.T) {
	base := benchRelation(t, 40)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRelation(t, 20) // 20 missing Phones

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := sess.Impute(ctx, req)
	elapsed := time.Since(start)

	if err != nil && !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
	if err != nil && elapsed > time.Second {
		t.Errorf("cancelled run took %v to stop", elapsed)
	}
	if res == nil {
		t.Fatal("result is nil")
	}
	if res.Stats.Imputed+res.Stats.Unimputed != res.Stats.MissingCells {
		t.Errorf("partial stats inconsistent: %+v", res.Stats)
	}
	if len(res.Imputations) != res.Stats.Imputed {
		t.Errorf("imputations %d != stats.Imputed %d", len(res.Imputations), res.Stats.Imputed)
	}
	for _, imp := range res.Imputations {
		if res.Relation.Get(imp.Cell.Row, imp.Cell.Attr).IsNull() {
			t.Error("recorded imputation not applied")
		}
	}
}

// TestSessionCancelLeaksNoGoroutines: cancelled runs must not strand
// goroutines.
func TestSessionCancelLeaksNoGoroutines(t *testing.T) {
	base := benchRelation(t, 40)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := benchRelation(t, 20)

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, _ = sess.Impute(ctx, req)
		cancel()
	}
	// Anything a run started drains cooperatively; give it a bounded
	// moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after cancelled runs", before, after)
	}
}

// TestSessionConcurrentRequests is the shared-artifact race test (runs
// under `make race`): many goroutines impute through one Session and
// every result must equal the serial reference.
func TestSessionConcurrentRequests(t *testing.T) {
	base := benchRelation(t, 8)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := sessionRequest(t)
	ref, err := sess.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := sess.Impute(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !res.Relation.Equal(ref.Relation) {
					errs <- errors.New("concurrent result diverged from reference")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionConcurrentMixedSessions: two sessions over the same shared
// base (via WithSigma) serving concurrently must not interfere.
func TestSessionConcurrentMixedSessions(t *testing.T) {
	base := benchRelation(t, 8)
	sigma := figure1Sigma(t, base.Schema())
	s1, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := s1.WithSigma(sigma[:3])
	if err != nil {
		t.Fatal(err)
	}
	req := sessionRequest(t)
	ref1, err := s1.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := s2.Impute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, ref := s1, ref1
			if g%2 == 1 {
				sess, ref = s2, ref2
			}
			for i := 0; i < 3; i++ {
				res, err := sess.Impute(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !res.Relation.Equal(ref.Relation) {
					errs <- fmt.Errorf("session %d diverged", g%2+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewSessionValidatesOptions(t *testing.T) {
	rel := table2(t)
	sigma := figure1Sigma(t, rel.Schema())
	if _, err := NewSession(rel, sigma, WithClusterOrder(ClusterOrder(7))); err == nil {
		t.Error("unknown ClusterOrder accepted")
	}
	if _, err := NewSession(rel, sigma, WithMaxCandidates(-2)); err == nil {
		t.Error("negative MaxCandidates accepted")
	}
	if _, err := NewSession(nil, sigma); err != nil {
		t.Errorf("nil base rejected: %v", err)
	}
}

func TestSessionSchemaMismatchRejected(t *testing.T) {
	base := table2(t)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	other, err := dataset.ReadCSVString("A,B\nx,y\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Impute(context.Background(), other); err == nil {
		t.Error("mismatched schema accepted")
	}
}

func TestSessionExplain(t *testing.T) {
	base := benchRelation(t, 8)
	sigma := figure1Sigma(t, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		t.Fatal(err)
	}
	req := sessionRequest(t)
	phone := req.Schema().MustIndex("Phone")
	text, err := sess.Explain(context.Background(), req, 1, phone)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Phone") {
		t.Errorf("explain text does not mention the attribute:\n%s", text)
	}
	// A cell that was never missing has no decision trace.
	text, err = sess.Explain(context.Background(), req, 0, phone)
	if err != nil {
		t.Fatal(err)
	}
	if text != "" {
		t.Errorf("non-missing cell produced a trace: %q", text)
	}
	if _, err := sess.Explain(context.Background(), req, 99, phone); err == nil {
		t.Error("out-of-range cell accepted")
	}
}

func TestSessionDiscover(t *testing.T) {
	base := table2(t)
	cfg := discovery.Config{MaxThreshold: 6}
	direct, err := discovery.Discover(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := sess.Discover(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) != len(direct) {
		t.Errorf("session discovery found %d RFDcs, direct %d", len(mined), len(direct))
	}
	served, err := sess.WithSigma(mined)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := served.Impute(context.Background(), table2(t)); err != nil {
		t.Fatal(err)
	}

	selfContained, err := NewSession(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selfContained.Discover(context.Background(), cfg); err == nil {
		t.Error("nil-base Discover did not error")
	}
}

// BenchmarkSessionImpute measures the compile-once serve-many path: the
// base donor pool is compiled once at session construction and every
// iteration pays only the per-request cost.
func BenchmarkSessionImpute(b *testing.B) {
	base := benchRelation(b, 200) // 1000 tuples
	sigma := figure1Sigma(b, base.Schema())
	sess, err := NewSession(base, sigma)
	if err != nil {
		b.Fatal(err)
	}
	req := sessionRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Impute(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneShotImputeWithDonors is the baseline the Session
// amortizes away: every iteration recompiles the full donor pool.
func BenchmarkOneShotImputeWithDonors(b *testing.B) {
	base := benchRelation(b, 200)
	sigma := figure1Sigma(b, base.Schema())
	im := New(sigma)
	req := sessionRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := im.ImputeWithDonorsContext(context.Background(), req, []*dataset.Relation{base}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCompile measures the serve compile-on-boot path: each
// iteration compiles the base from scratch and mines Σ on it — the full
// cost every replica pays at startup without an artifact.
func BenchmarkSessionCompile(b *testing.B) {
	base := benchRelation(b, 40) // 200 tuples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(base, nil)
		if err != nil {
			b.Fatal(err)
		}
		sigma, err := sess.Discover(context.Background(), discovery.Config{
			MaxThreshold: 6, MaxLHS: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.WithSigma(sigma); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionFromArtifact measures the serve -artifact boot path
// over the same base: each iteration reconstructs the full serving
// session (view, interners, index, Σ) from pre-encoded artifact bytes.
func BenchmarkSessionFromArtifact(b *testing.B) {
	base := benchRelation(b, 40)
	sess, err := NewSession(base, nil)
	if err != nil {
		b.Fatal(err)
	}
	sigma, err := sess.Discover(context.Background(), discovery.Config{
		MaxThreshold: 6, MaxLHS: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	if sess, err = sess.WithSigma(sigma); err != nil {
		b.Fatal(err)
	}
	data, err := sess.EncodeArtifact()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSessionFromArtifact(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchSessionJSON records the amortization evidence: with
// BENCH_SESSION_OUT set it runs both benchmarks via testing.Benchmark
// and writes their figures (plus the speedup ratio) as JSON.
//
//	BENCH_SESSION_OUT=BENCH_session.json go test ./internal/core -run TestBenchSessionJSON
func TestBenchSessionJSON(t *testing.T) {
	out := os.Getenv("BENCH_SESSION_OUT")
	if out == "" {
		t.Skip("set BENCH_SESSION_OUT=<file> to emit benchmark JSON")
	}
	session := testing.Benchmark(BenchmarkSessionImpute)
	oneShot := testing.Benchmark(BenchmarkOneShotImputeWithDonors)
	compile := testing.Benchmark(BenchmarkSessionCompile)
	fromArtifact := testing.Benchmark(BenchmarkSessionFromArtifact)
	doc, err := json.MarshalIndent(struct {
		Package     string        `json:"package"`
		Workload    string        `json:"workload"`
		Benchmarks  []BenchRecord `json:"benchmarks"`
		Speedup     float64       `json:"session_speedup"`
		BootSpeedup float64       `json:"artifact_boot_speedup"`
	}{
		Package:  "repro/internal/core",
		Workload: "1000-tuple donor pool, 4-tuple request with 2 missing cells; 200-tuple base for the boot pair",
		Benchmarks: []BenchRecord{
			record("SessionImpute", session),
			record("OneShotImputeWithDonors", oneShot),
			record("SessionCompile", compile),
			record("SessionFromArtifact", fromArtifact),
		},
		Speedup:     float64(oneShot.NsPerOp()) / float64(session.NsPerOp()),
		BootSpeedup: float64(compile.NsPerOp()) / float64(fromArtifact.NsPerOp()),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if session.NsPerOp() >= oneShot.NsPerOp() {
		t.Errorf("session (%d ns/op) did not beat one-shot (%d ns/op)",
			session.NsPerOp(), oneShot.NsPerOp())
	}
	// The acceptance bar for the artifact layer: booting from the
	// compiled artifact must be at least 10x faster than compiling (and
	// mining Σ on) the same base from scratch.
	if speedup := float64(compile.NsPerOp()) / float64(fromArtifact.NsPerOp()); speedup < 10 {
		t.Errorf("artifact boot speedup = %.1fx (compile %d ns/op, from-artifact %d ns/op), want >= 10x",
			speedup, compile.NsPerOp(), fromArtifact.NsPerOp())
	}
}

// warmSessionAllocs is what one warm single-row Session.Impute on a
// two-tier view allocated before matchers were pooled, measured on that
// code with this test's workload. Each run now takes its matcher — the
// kernel arena, the pass buffers and the kept columns — from the pool,
// so the count must not rise above it.
const warmSessionAllocs = 66

// TestWarmSessionImputeAllocs guards the matcher pool: a warm
// single-row request on a base-backed session allocates no more than
// warmSessionAllocs.
func TestWarmSessionImputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	base := benchRelation(t, 40)
	sess, err := NewSession(base, figure1Sigma(t, base.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	req, err := dataset.ReadCSVString("Name,City,Phone,Type,Class\nCitrus 7,Los Angeles,,Californian,6\n")
	if err != nil {
		t.Fatal(err)
	}
	impute := func() {
		res, err := sess.Impute(context.Background(), req)
		if err != nil || res.Stats.Imputed != 1 {
			t.Fatalf("warm impute: %v, %+v", err, res)
		}
	}
	impute()
	if n := testing.AllocsPerRun(50, impute); n > warmSessionAllocs {
		t.Errorf("%.0f allocs per warm single-row Session.Impute, want at most %d", n, warmSessionAllocs)
	}
}
