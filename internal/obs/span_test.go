package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace("root", SpanContext{})
	sc := tr.Context()
	if !sc.IsValid() {
		t.Fatalf("fresh trace context invalid: %+v", sc)
	}
	header := sc.Traceparent()
	got, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected own output", header)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
	if !got.Sampled {
		t.Fatalf("trace context should carry sampled flag: %q", header)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // too short
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // unknown version
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-ZZf067aa0ba902b7-01", // non-hex span id
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0Z", // non-hex flags
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong separator
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // upper-case trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", // upper-case span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // upper-case flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, ok := ParseTraceparent(good)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected valid input", good)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		sc.SpanID.String() != "00f067aa0ba902b7" || !sc.Sampled {
		t.Fatalf("parsed wrong fields: %+v", sc)
	}
	// Sampled is trace-flags bit 0; the other bits parse and are dropped.
	for flags, sampled := range map[string]bool{"00": false, "01": true, "02": false, "03": true, "ff": true} {
		sc, ok = ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-" + flags)
		if !ok || sc.Sampled != sampled {
			t.Errorf("flags %s: ok=%v sampled=%v, want ok sampled=%v", flags, ok, sc.Sampled, sampled)
		}
	}
}

// FuzzParseTraceparent: the parser never panics, and every input it
// accepts is a well-formed version-00 header — 55 bytes, lower-case hex
// fields, non-zero ids — whose Sampled flag is bit 0 of its flags byte
// and whose context survives a render-and-parse round trip.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if len(s) != 55 || s[:3] != "00-" || s[35] != '-' || s[52] != '-' {
			t.Fatalf("accepted %q: not a 55-byte version-00 header", s)
		}
		for _, field := range []string{s[3:35], s[36:52], s[53:55]} {
			if strings.Trim(field, "0123456789abcdef") != "" {
				t.Fatalf("accepted %q: field %q is not lower-case hex", s, field)
			}
		}
		if !sc.IsValid() {
			t.Fatalf("accepted %q with a zero id: %+v", s, sc)
		}
		flags, err := strconv.ParseUint(s[53:55], 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Sampled != (flags&1 == 1) {
			t.Fatalf("%q: Sampled = %v, flags byte %#02x", s, sc.Sampled, flags)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("%q: round trip gave (%+v, %v), want %+v", s, again, ok, sc)
		}
	})
}

func TestTraceRemoteParentLinks(t *testing.T) {
	parent, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := NewTrace("req", parent)
	if tr.TraceID() != parent.TraceID {
		t.Fatalf("trace should reuse upstream trace id")
	}
	tr.Finish()
	root := tr.Tree()
	if root.ParentID != parent.SpanID.String() {
		t.Fatalf("root parent = %q, want upstream span %q", root.ParentID, parent.SpanID)
	}
}

func TestSpanTreeShape(t *testing.T) {
	ring := NewSpanRing(4)
	ctx, tr := StartRequest(context.Background(), ring, "POST /v1/impute", SpanContext{})
	sp := SpanFromContext(ctx)
	if !sp.Enabled() {
		t.Fatal("span from StartRequest context should be enabled")
	}
	imp := sp.Child("impute")
	cell := imp.Child("cell")
	cell.Int("row", 3)
	cell.Str("attr", "City")
	cell.Float("best_distance", 0.25)
	search := cell.Child("candidate_search")
	search.Int("donor_pool", 12)
	search.End()
	rank := cell.Child("ranking")
	rank.End()
	cell.End()
	imp.End()
	tr.Finish()

	if ring.Len() != 1 {
		t.Fatalf("ring.Len() = %d, want 1", ring.Len())
	}
	root := ring.Last().Tree()
	if root.Name != "POST /v1/impute" || root.TraceID == "" {
		t.Fatalf("bad root: %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "impute" {
		t.Fatalf("root children = %+v", root.Children)
	}
	cellNode := root.Children[0].Children[0]
	if cellNode.Name != "cell" {
		t.Fatalf("cell node = %+v", cellNode)
	}
	if cellNode.Attrs["row"] != int64(3) || cellNode.Attrs["attr"] != "City" || cellNode.Attrs["best_distance"] != 0.25 {
		t.Fatalf("cell attrs = %+v", cellNode.Attrs)
	}
	names := []string{cellNode.Children[0].Name, cellNode.Children[1].Name}
	if names[0] != "candidate_search" || names[1] != "ranking" {
		t.Fatalf("cell children = %v", names)
	}
	if cellNode.Children[0].Attrs["donor_pool"] != int64(12) {
		t.Fatalf("search attrs = %+v", cellNode.Children[0].Attrs)
	}
	if err := tr.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
}

func TestTraceFinishClampsOpenSpans(t *testing.T) {
	tr := NewTrace("req", SpanContext{})
	child := tr.Root().Child("left-open")
	_ = child
	time.Sleep(time.Millisecond)
	tr.Finish()
	root := tr.Tree()
	if len(root.Children) != 1 {
		t.Fatalf("children = %+v", root.Children)
	}
	if root.Children[0].DurationUS <= 0 {
		t.Fatalf("open child not clamped: duration %v", root.Children[0].DurationUS)
	}
	if err := tr.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness after clamp: %v", err)
	}
	// Finish is idempotent: a second call must not re-push.
	ring := NewSpanRing(2)
	_, tr2 := StartRequest(context.Background(), ring, "r", SpanContext{})
	tr2.Finish()
	tr2.Finish()
	if ring.Len() != 1 {
		t.Fatalf("double Finish pushed twice: ring len %d", ring.Len())
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := NewTrace("req", SpanContext{})
	root := tr.Root()
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		c := root.Child("c")
		c.End()
	}
	if tr.Len() != MaxSpansPerTrace {
		t.Fatalf("trace len = %d, want %d", tr.Len(), MaxSpansPerTrace)
	}
	// 10 over the cap, plus one: the root occupies a slot, so the last
	// in-cap child is index MaxSpansPerTrace-1.
	if tr.Dropped() != 11 {
		t.Fatalf("dropped = %d, want 11", tr.Dropped())
	}
	// Dropped children are inert, not nil-panics.
	over := root.Child("over")
	over.Int("k", 1)
	over.End()
	tr.Finish()
	if tr.Tree().Dropped == 0 {
		t.Fatal("tree should disclose dropped spans")
	}
}

func TestSpanRingEviction(t *testing.T) {
	ring := NewSpanRing(2)
	var ids []string
	for i := 0; i < 3; i++ {
		_, tr := StartRequest(context.Background(), ring, "r", SpanContext{})
		ids = append(ids, tr.TraceID().String())
		tr.Finish()
	}
	if ring.Len() != 2 {
		t.Fatalf("ring len = %d, want 2", ring.Len())
	}
	if ring.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", ring.Evicted())
	}
	traces := ring.Traces()
	if traces[0].TraceID().String() != ids[1] || traces[1].TraceID().String() != ids[2] {
		t.Fatalf("ring retained wrong traces")
	}
	if ring.Last().TraceID().String() != ids[2] {
		t.Fatalf("Last() is not the newest trace")
	}
}

func TestDisabledSpanIsInert(t *testing.T) {
	sp := SpanFromContext(context.Background())
	if sp.Enabled() {
		t.Fatal("plain context should yield the disabled span")
	}
	child := sp.Child("x")
	child.Int("k", 1)
	child.Str("k", "v")
	child.Float("k", 1.5)
	child.End()
	if _, ok := child.SpanContext(); ok {
		t.Fatal("disabled span should have no context")
	}
	if child.Trace() != nil {
		t.Fatal("disabled span should have no trace")
	}
}

func TestSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := SpanFromContext(ctx)
		c := sp.Child("cell")
		c.Int("row", 1)
		c.Str("attr", "City")
		c.Float("d", 0.5)
		cc := c.Child("candidate_search")
		cc.End()
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per run, want 0", allocs)
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	ring := NewSpanRing(4)
	_, tr := StartRequest(context.Background(), ring, "req", SpanContext{})
	c := tr.Root().Child("impute")
	c.Int("cells", 2)
	c.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := ring.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	rootRec, childRec := lines[0], lines[1]
	if rootRec["trace_id"] != tr.TraceID().String() || childRec["trace_id"] != rootRec["trace_id"] {
		t.Fatalf("trace ids differ: %v vs %v", rootRec["trace_id"], childRec["trace_id"])
	}
	if childRec["parent_id"] != rootRec["span_id"] {
		t.Fatalf("child parent_id %v != root span_id %v", childRec["parent_id"], rootRec["span_id"])
	}
	if childRec["attrs"].(map[string]any)["cells"] != float64(2) {
		t.Fatalf("child attrs = %v", childRec["attrs"])
	}
	if childRec["end_unix_nano"].(float64) == 0 {
		t.Fatal("child end not recorded")
	}
}

func TestSpansHandler(t *testing.T) {
	// nil ring: mounted but disabled.
	rr := httptest.NewRecorder()
	SpansHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans", nil))
	if rr.Code != 404 {
		t.Fatalf("nil ring status = %d, want 404", rr.Code)
	}

	ring := NewSpanRing(8)
	for i := 0; i < 3; i++ {
		_, tr := StartRequest(context.Background(), ring, "req", SpanContext{})
		tr.Root().Child("impute").End()
		tr.Finish()
	}
	rr = httptest.NewRecorder()
	SpansHandler(ring).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d body %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type = %q", ct)
	}
	var trees []SpanNode
	if err := json.Unmarshal(rr.Body.Bytes(), &trees); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(trees) != 3 {
		t.Fatalf("got %d trees, want 3", len(trees))
	}
	if len(trees[0].Children) != 1 || trees[0].Children[0].Name != "impute" {
		t.Fatalf("tree shape: %+v", trees[0])
	}

	// ?n= limits to the newest n.
	rr = httptest.NewRecorder()
	SpansHandler(ring).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans?n=2", nil))
	trees = nil
	if err := json.Unmarshal(rr.Body.Bytes(), &trees); err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("n=2 returned %d trees", len(trees))
	}

	rr = httptest.NewRecorder()
	SpansHandler(ring).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/spans?n=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bogus n status = %d, want 400", rr.Code)
	}
}

func TestTraceConcurrentChildren(t *testing.T) {
	ring := NewSpanRing(4)
	_, tr := StartRequest(context.Background(), ring, "req", SpanContext{})
	root := tr.Root()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("cell")
				c.Int("worker", int64(g))
				cc := c.Child("candidate_search")
				cc.End()
				c.End()
			}
		}(g)
	}
	wg.Wait()
	tr.Finish()
	if err := tr.CheckWellFormed(); err != nil {
		t.Fatalf("concurrent trace malformed: %v", err)
	}
	if tr.Len() != 1+8*50*2 {
		t.Fatalf("trace len = %d, want %d", tr.Len(), 1+8*50*2)
	}
	// Tree building over the full arena must not panic or mis-link.
	var count func(n *SpanNode) int
	count = func(n *SpanNode) int {
		total := 1
		for _, c := range n.Children {
			total += count(c)
		}
		return total
	}
	if got := count(tr.Tree()); got != tr.Len() {
		t.Fatalf("tree holds %d spans, arena holds %d", got, tr.Len())
	}
}

func TestCheckWellFormedDetectsViolations(t *testing.T) {
	tr := NewTrace("root", SpanContext{})
	c := tr.Root().Child("c")
	c.End()
	tr.Finish()
	// Corrupt: child ends after parent.
	tr.spans[1].end = tr.spans[0].end + 100
	if err := tr.CheckWellFormed(); err == nil {
		t.Fatal("child ending after parent not detected")
	}
	tr.spans[1].end = tr.spans[0].end
	// Corrupt: child starts before parent.
	tr.spans[1].start = tr.spans[0].start - 100
	if err := tr.CheckWellFormed(); err == nil {
		t.Fatal("child starting before parent not detected")
	}
	tr.spans[1].start = tr.spans[0].start
	// Corrupt: forward parent reference.
	tr.spans[1].parent = 5
	if err := tr.CheckWellFormed(); err == nil {
		t.Fatal("orphan parent not detected")
	}
}
