package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAddAndSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrCandidatesEvaluated, 3)
	m.Add(CtrCandidatesEvaluated, 4)
	m.Add(CtrFaultlessChecks, 1)
	if got := m.Counter(CtrCandidatesEvaluated); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	m.Add(CtrVerifyPlans, 9)
	m.Add(CtrVerifyArmedRows, 4)
	m.Add(CtrLevenshteinMaskRejects, 2)
	s := m.Snapshot()
	if s.Counters["candidates_evaluated"] != 7 || s.Counters["faultless_checks"] != 1 {
		t.Fatalf("snapshot counters = %v", s.Counters)
	}
	// The verify-plan and kernel counters flow into the snapshot under
	// their wire names.
	if s.Counters["verify_plans"] != 9 ||
		s.Counters["verify_armed_rows"] != 4 ||
		s.Counters["levenshtein_mask_rejects"] != 2 {
		t.Fatalf("snapshot verify/kernel counters = %v", s.Counters)
	}
	// Every counter name must be present, even untouched ones.
	if len(s.Counters) != numCounters {
		t.Fatalf("snapshot has %d counters, want %d", len(s.Counters), numCounters)
	}
}

func TestOutOfRangeSlotsAreIgnored(t *testing.T) {
	m := NewMetrics()
	m.Add(Counter(-1), 5)
	m.Add(Counter(numCounters), 5)
	m.Observe(Hist(-1), 1)
	m.Time(Phase(numPhases), time.Second)
	s := m.Snapshot()
	for name, v := range s.Counters {
		if v != 0 {
			t.Fatalf("counter %s = %d after out-of-range ops", name, v)
		}
	}
	if Counter(-1).String() != "unknown_counter" ||
		Phase(numPhases).String() != "unknown_phase" ||
		Hist(numHists).String() != "unknown_hist" {
		t.Fatal("out-of-range names not sanitized")
	}
}

func TestHistogramBucketing(t *testing.T) {
	m := NewMetrics()
	// Bounds for attempts: {1, 2, 3, 5, 10, 20, 50}.
	for _, v := range []float64{1, 1, 2, 4, 51, 1e9} {
		m.Observe(HistAttemptsPerImputation, v)
	}
	s := m.Snapshot().Histograms["attempts_per_imputation"]
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if want := 1 + 1 + 2 + 4 + 51 + 1e9; s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	// v=1 twice in the le=1 bucket, v=2 in le=2, v=4 in le=5, v=51 and
	// 1e9 in the +Inf overflow.
	counts := map[float64]int64{}
	for _, b := range s.Buckets {
		counts[b.UpperBound] = b.Count
	}
	if counts[1] != 2 || counts[2] != 1 || counts[5] != 1 || counts[math.Inf(1)] != 2 {
		t.Fatalf("bucket counts = %+v", s.Buckets)
	}
}

func TestPhaseAccounting(t *testing.T) {
	m := NewMetrics()
	m.Time(PhaseVerify, 5*time.Millisecond)
	m.Time(PhaseVerify, 7*time.Millisecond)
	if got := m.PhaseNanos(PhaseVerify); got != int64(12*time.Millisecond) {
		t.Fatalf("verify ns = %d", got)
	}
	s := m.Snapshot().Phases["verify"]
	if s.Count != 2 || s.Nanos != int64(12*time.Millisecond) {
		t.Fatalf("phase snapshot = %+v", s)
	}
}

func TestSinceAndNowSkipDisabledClock(t *testing.T) {
	if !Now(Nop{}).IsZero() {
		t.Fatal("Now(Nop) read the clock")
	}
	if Now(nil) != (time.Time{}) {
		t.Fatal("Now(nil) read the clock")
	}
	Since(nil, PhaseTotal, time.Now())   // must not panic
	Since(Nop{}, PhaseTotal, time.Now()) // must not panic
	m := NewMetrics()
	if Now(m).IsZero() {
		t.Fatal("Now(Metrics) returned zero")
	}
	Since(m, PhaseTotal, time.Now().Add(-time.Millisecond))
	if m.PhaseNanos(PhaseTotal) < int64(time.Millisecond) {
		t.Fatalf("Since recorded %d ns", m.PhaseNanos(PhaseTotal))
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := NewMetrics()
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Add(CtrDonorsScanned, 1)
				m.Observe(HistCandidatesPerCell, float64(i%7))
				m.Time(PhaseCandidateSearch, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter(CtrDonorsScanned); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	h := m.Snapshot().Histograms["candidates_per_cell"]
	if h.Count != workers*per {
		t.Fatalf("hist count = %d, want %d", h.Count, workers*per)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
}

func TestResetZeroesEverything(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrImputations, 9)
	m.Observe(HistImputeMicros, 500)
	m.Time(PhaseTotal, time.Second)
	m.Reset()
	s := m.Snapshot()
	if s.Counters["imputations"] != 0 ||
		s.Phases["total"].Nanos != 0 ||
		s.Histograms["impute_micros"].Count != 0 ||
		s.Histograms["impute_micros"].Sum != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrLevenshteinCalls, 42)
	m.Observe(HistCandidatesPerCell, 3)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				Le any   `json:"le"`
				N  int64 `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot JSON not parseable: %v\n%s", err, raw)
	}
	if doc.Counters["levenshtein_calls"] != 42 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	bs := doc.Histograms["candidates_per_cell"].Buckets
	if len(bs) == 0 || bs[len(bs)-1].Le != "+Inf" {
		t.Fatalf("overflow bucket not serialized as +Inf: %v", bs)
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	m := NewMetrics()
	m.Add(CtrImputations, 5)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var s struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["imputations"] != 5 {
		t.Fatalf("served counters = %v", s.Counters)
	}
}

func TestMountDebugPprof(t *testing.T) {
	mux := http.NewServeMux()
	MountDebug(mux)
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

func TestGlobalGate(t *testing.T) {
	Global().Reset()
	SetGlobalEnabled(false)
	GlobalAdd(CtrLevenshteinCalls, 1)
	if got := Global().Counter(CtrLevenshteinCalls); got != 0 {
		t.Fatalf("disabled global recorded %d", got)
	}
	SetGlobalEnabled(true)
	defer SetGlobalEnabled(false)
	GlobalAdd(CtrLevenshteinCalls, 2)
	if got := Global().Counter(CtrLevenshteinCalls); got != 2 {
		t.Fatalf("enabled global = %d, want 2", got)
	}
}

func TestNopIsFree(t *testing.T) {
	var r Recorder = Nop{}
	if r.Enabled() {
		t.Fatal("Nop claims enabled")
	}
	r.Add(CtrImputations, 1)
	r.Observe(HistCandidatesPerCell, 1)
	r.Time(PhaseTotal, time.Second)
	if n := testing.AllocsPerRun(100, func() {
		r.Add(CtrImputations, 1)
	}); n != 0 {
		t.Fatalf("Nop.Add allocates %v per run", n)
	}
}
