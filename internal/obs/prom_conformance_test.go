package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promFamily is one metric family reconstructed from the exposition.
type promFamily struct {
	help    string
	typ     string
	samples int
}

var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*,?\})? (-?[0-9.eE+]+|\+Inf|NaN)$`)

// parsePromExposition is a strict format parser: every line must be a
// well-formed HELP, TYPE, or sample line; HELP/TYPE must precede their
// family's samples and appear exactly once; every sample must belong to
// a declared family (histogram samples via the _bucket/_sum/_count
// suffixes, counters via _total).
func parsePromExposition(t *testing.T, out string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	owner := func(name string) *promFamily {
		if f, ok := families[name]; ok {
			return f
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					return f
				}
			}
		}
		return nil
	}
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if _, dup := families[name]; dup {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			families[name] = &promFamily{help: help}
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			f, declared := families[name]
			if !declared {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", ln+1, name)
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
				f.typ = typ
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment %q", ln+1, line)
		default:
			match := promSampleRe.FindStringSubmatch(line)
			if match == nil {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			name := match[1]
			f := owner(name)
			if f == nil {
				t.Fatalf("line %d: sample %s has no declared family", ln+1, name)
			}
			if f.typ == "" {
				t.Fatalf("line %d: sample %s precedes its TYPE", ln+1, name)
			}
			if f.typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("line %d: counter sample %s does not end in _total", ln+1, name)
			}
			f.samples++
		}
	}
	for name, f := range families {
		if f.typ == "" {
			t.Fatalf("family %s has HELP but no TYPE", name)
		}
		if f.samples == 0 {
			t.Fatalf("family %s declared but has no samples", name)
		}
	}
	return families
}

// TestPrometheusConformance scrapes a fully loaded registry — core
// metrics plus every collector kind — and strict-parses the entire
// output.
func TestPrometheusConformance(t *testing.T) {
	reg, vec := testRegistry()
	m := reg.Metrics()
	m.Add(CtrImputations, 3)
	m.Time(PhaseVerify, 2*time.Millisecond)
	m.Observe(HistImputeMicros, 1234)
	m.Observe(HistServeQueueWaitMicros, 55)
	vec.ObserveLabel("v1/impute", 500)
	vec.ObserveLabel("v1/impute", 50_000)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := parsePromExposition(t, buf.String())

	// Every enum metric family must be declared.
	for c := 0; c < numCounters; c++ {
		name := promName(Counter(c).String()) + "_total"
		if f := families[name]; f == nil || f.typ != "counter" {
			t.Errorf("counter family %s missing or mistyped", name)
		}
	}
	for h := 0; h < numHists; h++ {
		name := promName(Hist(h).String())
		if f := families[name]; f == nil || f.typ != "histogram" {
			t.Errorf("histogram family %s missing or mistyped", name)
		}
	}
	for _, name := range []string{"renuver_phase_seconds_total", "renuver_phase_events_total",
		"renuver_http_request_micros", "renuver_build_info", "renuver_session_epoch"} {
		if families[name] == nil {
			t.Errorf("family %s missing", name)
		}
	}

	// Histogram buckets must be cumulative and end at +Inf == _count.
	checkHistogram(t, buf.String(), "renuver_http_request_micros", `route="v1/impute",`)
	checkHistogram(t, buf.String(), "renuver_impute_micros", "")
}

// checkHistogram asserts the le buckets of one histogram series are
// monotonically non-decreasing and that the +Inf bucket equals _count.
func checkHistogram(t *testing.T, out, name, labels string) {
	t.Helper()
	var prev, inf, count int64 = -1, -1, -1
	sawInf := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+"_bucket{"+labels+"le=") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("%s buckets not cumulative at %q", name, line)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				inf, sawInf = v, true
			}
		}
		countPrefix := name + "_count"
		if labels != "" {
			countPrefix += "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		if strings.HasPrefix(line, countPrefix+" ") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	if !sawInf {
		t.Fatalf("%s has no +Inf bucket", name)
	}
	if inf != count {
		t.Fatalf("%s +Inf bucket %d != count %d", name, inf, count)
	}
}
