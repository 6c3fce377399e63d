package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// span is one record of the spans file: a timed call into one layer.
// Spans of one request (or one set-up, or one clean) share Trace; Parent
// is the enclosing span's ID, 0 for a root. Times are nanoseconds since
// the tracer started.
type span struct {
	Trace  uint64             `json:"trace"`
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is the untraced mode: every method is a no-op, so traced and
// untraced replays run the same code.
//
// It is not an obs.Trace because one clean_cars imputation alone opens
// about 4500 spans in core (a cell span and its candidate_search,
// ranking and verify children for each of 731 missing cells), past
// obs.MaxSpansPerTrace (4096): the library trace would drop the tail
// and undercount verify. The core phase times therefore come from
// Result.Stats, which the same call also fills, and the benchmark opens
// its own spans around the calls into each layer.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	trace, id, parent uint64
	name              string
	start             time.Time
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// root opens the first span of a new trace.
func (t *tracer) root(name string) *openSpan {
	if t == nil {
		return nil
	}
	id := t.newID()
	return &openSpan{trace: id, id: id, name: name, start: time.Now()}
}

// child opens a span under parent.
func (t *tracer) child(parent *openSpan, name string) *openSpan {
	if t == nil || parent == nil {
		return nil
	}
	return &openSpan{trace: parent.trace, id: t.newID(), parent: parent.id, name: name, start: time.Now()}
}

// end closes s. The end time is taken first; attrs (may be nil) runs
// afterwards, so collecting counters stays outside the span.
func (t *tracer) end(s *openSpan, attrs func() map[string]float64) {
	if t == nil || s == nil {
		return
	}
	end := time.Now()
	var a map[string]float64
	if attrs != nil {
		a = attrs()
	}
	t.add(span{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: a})
}

// record adds a root span timed by the caller.
func (t *tracer) record(name string, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	id := t.newID()
	t.add(span{Trace: id, ID: id, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes the environment record and then one span per line.
func writeSpans(path string, env environment, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]environment{"environment": env}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a spans file back (skipping its environment line).
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var spans []span
	for line := 1; sc.Scan(); line++ {
		if line == 1 {
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		spans = append(spans, s)
	}
	return spans, sc.Err()
}

// folded is the sum over all spans of one name.
type folded struct {
	count int
	self  float64 // ns: duration minus the time of child spans
	attrs map[string]float64
}

func (f *folded) meanSelf() float64 {
	if f == nil || f.count == 0 {
		return 0
	}
	return f.self / float64(f.count)
}

// perCall is the mean of an attribute per span.
func (f *folded) perCall(attr string) float64 {
	if f == nil || f.count == 0 {
		return 0
	}
	return f.attrs[attr] / float64(f.count)
}

func (f *folded) sum(attr string) float64 {
	if f == nil {
		return 0
	}
	return f.attrs[attr]
}

// fold groups spans by name, with each span's self time.
func fold(spans []span) map[string]*folded {
	childTime := map[uint64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childTime[s.Parent] += float64(s.End - s.Start)
		}
	}
	out := map[string]*folded{}
	for _, s := range spans {
		f := out[s.Name]
		if f == nil {
			f = &folded{attrs: map[string]float64{}}
			out[s.Name] = f
		}
		f.count++
		f.self += float64(s.End-s.Start) - childTime[s.ID]
		for k, v := range s.Attrs {
			f.attrs[k] += v
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// The kind attribute tells serve.http spans apart.
const (
	kindSingle = 0
	kindBatch  = 1
	kindDelta  = 2
)

// layerMetrics derives every per-layer metric from the spans file's
// contents. Layers a workload does not call report 0.
func layerMetrics(spans []span) map[string]float64 {
	f := fold(spans)
	m := map[string]float64{}
	const us, ms = 1e3, 1e6 // ns per unit

	imp := f["core.impute"]
	m["core.impute_us"] = imp.meanSelf() / us
	for _, p := range []string{"preprocess", "verify", "candidate_search", "ranking", "key_reeval"} {
		m["core."+p+"_us"] = imp.perCall(p+"_ns") / us
	}
	for _, c := range []string{"key_rfds", "faultless_checks", "verify_rejections", "donors_scanned",
		"index_hits", "index_misses", "candidates_evaluated"} {
		m["core."+c] = imp.perCall(c)
	}
	m["core.accept_ratio"] = ratio(imp.sum("imputed"), imp.sum("candidates_tried"))

	del := f["core.apply_delta"]
	m["core.delta_apply_us"] = del.meanSelf() / us
	for _, p := range []string{"build", "revalidate", "index"} {
		m["core.delta_"+p+"_us"] = del.perCall(p+"_ns") / us
	}
	m["core.delta_sigma_dropped"] = del.perCall("sigma_dropped")
	m["core.delta_sigma_tightened"] = del.perCall("sigma_tightened")
	m["core.delta_index_rebuilt_ratio"] = del.perCall("index_rebuilt")
	m["core.delta_cache_shards_invalidated"] = del.perCall("cache_shards_invalidated")

	m["engine.precompile_ms"] = f["engine.precompile"].meanSelf() / ms
	hits, misses := imp.sum("cache_hits"), imp.sum("cache_misses")
	m["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.cache_misses"] = imp.perCall("cache_misses")
	m["engine.index_probes"] = imp.perCall("index_probes")

	m["distance.levenshtein_calls"] = imp.perCall("lev_calls")
	myers, banded := imp.sum("lev_myers"), imp.sum("lev_banded")
	m["distance.myers_share"] = ratio(myers, myers+banded)
	m["distance.early_exit_ratio"] = ratio(imp.sum("lev_early_exits"), imp.sum("lev_calls"))

	disc := f["discovery.discover"]
	m["discovery.discover_ms"] = disc.meanSelf() / ms
	m["discovery.materialize_ms"] = disc.perCall("materialize_ns") / ms
	m["discovery.search_ms"] = disc.perCall("search_ns") / ms
	m["discovery.patterns"] = disc.perCall("patterns")

	// Σ at the start is what the first discovery produced; at the end,
	// what the last delta left in force.
	m["rfd.sigma_size"], m["rfd.sigma_size_end"] = 0, 0
	first := true
	for _, s := range spans {
		switch {
		case s.Name == "discovery.discover" && first:
			first = false
			m["rfd.sigma_size"] = s.Attrs["rules"]
			m["rfd.sigma_size_end"] = s.Attrs["rules"]
		case s.Name == "core.apply_delta":
			m["rfd.sigma_size_end"] = s.Attrs["rules"]
		}
	}

	m["artifact.compile_ms"] = f["artifact.compile"].meanSelf() / ms
	m["artifact.load_ms"] = f["artifact.load"].meanSelf() / ms
	m["artifact.bytes"] = f["artifact.compile"].perCall("bytes")
	m["dataset.read_csv_ms"] = f["dataset.read_csv"].meanSelf() / ms
	m["dataset.write_csv_ms"] = f["dataset.write_csv"].meanSelf() / ms

	var singles []float64
	for _, s := range spans {
		if s.Name == "serve.http" && s.Attrs["kind"] == kindSingle {
			singles = append(singles, float64(s.End-s.Start))
		}
	}
	m["serve.overhead_us"] = 0
	if len(singles) > 0 {
		m["serve.overhead_us"] = mean(singles)/us - m["core.impute_us"]
	}
	m["serve.read_p50_ms"] = median(singles) / ms
	m["serve.read_p99_ms"] = percentile(singles, 0.99) / ms
	sm := f["serve.metrics"]
	m["serve.queue_wait_us"] = ratio(sm.sum("queue_wait_sum_us"), sm.sum("queue_wait_count"))
	m["serve.rejected"] = sm.sum("rejected")

	m["bench.generator_lag_ms"] = f["bench.open_loop"].perCall("lag_mean_ms")
	var callNs, calls [2]float64
	for _, s := range spans {
		if s.Name == "bench.replay" {
			i := int(s.Attrs["traced"])
			callNs[i] += float64(s.End - s.Start)
			calls[i] += s.Attrs["calls"]
		}
	}
	m["bench.trace_overhead"] = ratio(ratio(callNs[1], calls[1]), ratio(callNs[0], calls[0]))
	return m
}

// levCounts are the process-wide Levenshtein counters.
type levCounts struct{ calls, myers, banded, early int64 }

func readLev() levCounts {
	g := obs.Global()
	return levCounts{
		calls:  g.Counter(obs.CtrLevenshteinCalls),
		myers:  g.Counter(obs.CtrLevenshteinMyers),
		banded: g.Counter(obs.CtrLevenshteinBanded),
		early:  g.Counter(obs.CtrLevenshteinEarlyExits),
	}
}

// traceImpute runs one core imputation under a core.impute span whose
// attributes are the run's Stats, its phases and its Levenshtein work.
func traceImpute(tr *tracer, parent *openSpan, call func() (*core.Result, error)) (*core.Result, error) {
	var lev0 levCounts
	if tr != nil {
		lev0 = readLev()
	}
	sp := tr.child(parent, "core.impute")
	res, err := call()
	tr.end(sp, func() map[string]float64 {
		if err != nil {
			return nil
		}
		st, lev := res.Stats, readLev()
		return map[string]float64{
			"preprocess_ns":        float64(st.Phases.Preprocess),
			"candidate_search_ns":  float64(st.Phases.CandidateSearch),
			"ranking_ns":           float64(st.Phases.Ranking),
			"verify_ns":            float64(st.Phases.Verify),
			"key_reeval_ns":        float64(st.Phases.KeyReeval),
			"key_rfds":             float64(st.KeyRFDs),
			"faultless_checks":     float64(st.FaultlessChecks),
			"verify_rejections":    float64(st.VerifyRejections),
			"donors_scanned":       float64(st.DonorsScanned),
			"index_hits":           float64(st.IndexHits),
			"index_misses":         float64(st.IndexMisses),
			"candidates_evaluated": float64(st.CandidatesEvaluated),
			"candidates_tried":     float64(st.CandidatesTried),
			"imputed":              float64(st.Imputed),
			"cache_hits":           float64(st.EngineCacheHits),
			"cache_misses":         float64(st.EngineCacheMisses),
			"index_probes":         float64(st.EngineIndexProbes),
			"lev_calls":            float64(lev.calls - lev0.calls),
			"lev_myers":            float64(lev.myers - lev0.myers),
			"lev_banded":           float64(lev.banded - lev0.banded),
			"lev_early_exits":      float64(lev.early - lev0.early),
		}
	})
	return res, err
}

// discoveryAttrs returns the attributes of a discovery.discover span:
// the recorder's discovery phase and pattern counters since before.
func discoveryAttrs(rec *obs.Metrics, before obs.Snapshot, rules int) func() map[string]float64 {
	return func() map[string]float64 {
		after := rec.Snapshot()
		return map[string]float64{
			"materialize_ns": float64(after.Phases["discovery_materialize"].Nanos - before.Phases["discovery_materialize"].Nanos),
			"search_ns":      float64(after.Phases["discovery_search"].Nanos - before.Phases["discovery_search"].Nanos),
			"patterns":       float64(after.Counters["discovery_patterns"] - before.Counters["discovery_patterns"]),
			"rules":          float64(rules),
		}
	}
}
