package obs

// The Metrics enums deliberately cover only process-wide scalars; serve
// mode also needs labeled families (per-route latency, a build-info
// gauge) whose label sets are only known at startup.
// Rather than growing the enum into a string-keyed registry — and
// giving up its single-atomic record path — labeled families implement
// the small Collector interface and a Registry composes them with a
// Metrics into one /metrics endpoint, in both representations: each
// collector appends its exposition lines (with HELP/TYPE) and
// contributes one named entry to an "extra" section of the JSON
// snapshot.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Collector is one extra metric family composed into a Registry.
// Implementations must be safe for concurrent use.
type Collector interface {
	// AppendPrometheus appends the family's full exposition (HELP, TYPE,
	// samples) to the scrape output.
	AppendPrometheus(sb *strings.Builder)
	// SnapshotEntry returns the family's key and value in the JSON
	// snapshot's "extra" section. The value must be JSON-marshalable.
	SnapshotEntry() (name string, value any)
}

// Registry composes the core Metrics with any number of Collectors into
// one metrics surface. Register is not synchronized against serving:
// register everything at startup, then share freely.
type Registry struct {
	metrics    *Metrics
	collectors []Collector
}

// NewRegistry wraps a Metrics sink (nil means a fresh one).
func NewRegistry(m *Metrics) *Registry {
	if m == nil {
		m = NewMetrics()
	}
	return &Registry{metrics: m}
}

// Metrics returns the registry's core sink.
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Register appends collectors to the exposition, in call order.
func (r *Registry) Register(cs ...Collector) { r.collectors = append(r.collectors, cs...) }

// WritePrometheus renders the core metrics followed by every collector.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	r.metrics.appendPrometheus(&sb)
	for _, c := range r.collectors {
		c.AppendPrometheus(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// RegistrySnapshot is the registry's JSON form: the core snapshot plus
// one entry per collector under "extra".
type RegistrySnapshot struct {
	Snapshot
	Extra map[string]any `json:"extra,omitempty"`
}

// Snapshot copies the current state of the core metrics and every
// collector.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{Snapshot: r.metrics.Snapshot()}
	if len(r.collectors) > 0 {
		s.Extra = make(map[string]any, len(r.collectors))
		for _, c := range r.collectors {
			name, v := c.SnapshotEntry()
			s.Extra[name] = v
		}
	}
	return s
}

// Handler serves the composed registry with the same content
// negotiation as Handler: JSON snapshot by default, text exposition for
// Prometheus scrapers.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if acceptsPrometheus(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// ---- labeled histogram vector -------------------------------------------

// HistVec is a fixed-label-set histogram family: one atomic histogram
// per label value, all sharing one bucket grid. The label set is frozen
// at construction — serve mode knows its routes when it builds the mux —
// which keeps Observe a slice index away from the same lock-free path
// the enum histograms use, with no map lookup and no label-churn
// cardinality risk.
type HistVec struct {
	name     string // bare name; promName applied at exposition
	help     string
	labelKey string
	labels   []string
	index    map[string]int
	hists    []histogram
}

// NewHistVec builds a histogram family with one series per label value.
func NewHistVec(name, help, labelKey string, labels []string, bounds []float64) *HistVec {
	v := &HistVec{
		name:     name,
		help:     help,
		labelKey: labelKey,
		labels:   append([]string(nil), labels...),
		index:    make(map[string]int, len(labels)),
		hists:    make([]histogram, len(labels)),
	}
	for i, l := range v.labels {
		v.index[l] = i
		v.hists[i].init(bounds)
	}
	return v
}

// Labels returns the family's label values, in series order.
func (v *HistVec) Labels() []string { return v.labels }

// Index returns the series index of a label value.
func (v *HistVec) Index(label string) (int, bool) {
	i, ok := v.index[label]
	return i, ok
}

// Observe records one sample into series i. Out-of-range indices are
// dropped, mirroring the enum histograms.
func (v *HistVec) Observe(i int, val float64) {
	if i >= 0 && i < len(v.hists) {
		v.hists[i].observe(val)
	}
}

// ObserveLabel records one sample into the series for the label value,
// reporting false for unknown labels.
func (v *HistVec) ObserveLabel(label string, val float64) bool {
	i, ok := v.index[label]
	if ok {
		v.hists[i].observe(val)
	}
	return ok
}

// Series returns one series' snapshot (with derived quantiles).
func (v *HistVec) Series(i int) HistSnapshot {
	if i < 0 || i >= len(v.hists) {
		return HistSnapshot{}
	}
	return v.hists[i].snapshot()
}

// AppendPrometheus implements Collector: one family header, then every
// series' cumulative buckets labeled by the family's label key.
func (v *HistVec) AppendPrometheus(sb *strings.Builder) {
	name := promName(v.name)
	promHeader(sb, name, "histogram", v.help)
	for i, label := range v.labels {
		labels := fmt.Sprintf("%s=%q,", v.labelKey, label)
		appendHistogramSeries(sb, name, labels, v.hists[i].snapshot())
	}
}

// SnapshotEntry implements Collector: a map of label value to series
// snapshot.
func (v *HistVec) SnapshotEntry() (string, any) {
	out := make(map[string]HistSnapshot, len(v.labels))
	for i, label := range v.labels {
		out[label] = v.hists[i].snapshot()
	}
	return v.name, out
}

// ---- constant info gauge ------------------------------------------------

// Label is one key/value pair on a constant gauge.
type Label struct {
	Key, Value string
}

// ConstGauge is a fixed gauge sample — the renuver_build_info pattern:
// the value is always 1 and the payload lives in the labels.
type ConstGauge struct {
	name   string
	help   string
	labels []Label
	value  float64
}

// NewConstGauge builds a constant gauge. Labels render in the given
// order.
func NewConstGauge(name, help string, value float64, labels ...Label) *ConstGauge {
	return &ConstGauge{name: name, help: help, labels: labels, value: value}
}

// AppendPrometheus implements Collector.
func (g *ConstGauge) AppendPrometheus(sb *strings.Builder) {
	name := promName(g.name)
	promHeader(sb, name, "gauge", g.help)
	sb.WriteString(name)
	if len(g.labels) > 0 {
		sb.WriteByte('{')
		for i, l := range g.labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(sb, "%s=%q", l.Key, l.Value)
		}
		sb.WriteByte('}')
	}
	fmt.Fprintf(sb, " %s\n", promFloat(g.value))
}

// SnapshotEntry implements Collector: the labels as a flat string map.
func (g *ConstGauge) SnapshotEntry() (string, any) {
	out := make(map[string]string, len(g.labels))
	for _, l := range g.labels {
		out[l.Key] = l.Value
	}
	return g.name, out
}

// FuncGauge is a live gauge sample: the value is read from fn at every
// exposition — the renuver_session_epoch pattern, where the payload is
// the number itself and changes over the process lifetime. fn must be
// safe for concurrent use.
type FuncGauge struct {
	name string
	help string
	fn   func() float64
}

// NewFuncGauge builds a live gauge.
func NewFuncGauge(name, help string, fn func() float64) *FuncGauge {
	return &FuncGauge{name: name, help: help, fn: fn}
}

// AppendPrometheus implements Collector.
func (g *FuncGauge) AppendPrometheus(sb *strings.Builder) {
	name := promName(g.name)
	promHeader(sb, name, "gauge", g.help)
	fmt.Fprintf(sb, "%s %s\n", name, promFloat(g.fn()))
}

// SnapshotEntry implements Collector: the current value.
func (g *FuncGauge) SnapshotEntry() (string, any) {
	return g.name, g.fn()
}
