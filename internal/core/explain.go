package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rfd"
)

// This file is the explain surface over the trace layer: the per-cell
// event sequences collected during a traced run (WithTracer) are kept on
// the Result and rendered either raw (Explain) or as a human-readable
// decision tree (ExplainText) — the answer to "why did cell (t, A) get
// value X instead of Y, and which RFDc vetoed the alternative?".

// Explain returns the decision trace recorded for one cell: a
// well-ordered event sequence opening with CellStarted and closing with
// CellResolved or CellAbandoned. It returns nil when the run had no
// tracer, or the cell was not sampled, or the cell was never missing.
func (res *Result) Explain(row, attr int) []obs.TraceEvent {
	return res.Traces[dataset.Cell{Row: row, Attr: attr}]
}

// addTrace closes the collector and attaches its events to the result.
func (res *Result) addTrace(cell dataset.Cell, ct *obs.CellTrace) {
	evs := ct.Close()
	if evs == nil {
		return
	}
	if res.Traces == nil {
		res.Traces = make(map[dataset.Cell][]obs.TraceEvent)
	}
	res.Traces[cell] = evs
}

// ExplainText renders one cell's trace as an indented decision tree with
// attribute names from the schema and 1-based rows (matching Report).
// It returns "" when the cell has no trace.
func (res *Result) ExplainText(schema *dataset.Schema, row, attr int) string {
	evs := res.Explain(row, attr)
	if len(evs) == 0 {
		return ""
	}
	var sb strings.Builder
	name := schema.Attr(attr).Name
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvCellStarted:
			fmt.Fprintf(&sb, "cell (row %d, %s): %d cluster(s) of applicable RFDcs\n", row+1, name, ev.N)
		case obs.EvRuleSelected:
			fmt.Fprintf(&sb, "  cluster threshold %g:\n", ev.Threshold)
			for _, r := range ev.Rules {
				fmt.Fprintf(&sb, "    %s\n", r)
			}
		case obs.EvDonorConsidered:
			fmt.Fprintf(&sb, "  candidate row %d%s: Eq.2 score %.3f%s\n",
				ev.Donor+1, sourceSuffix(ev.Source), ev.Score, distSuffix(ev.Dists))
		case obs.EvFaultlessVerdict:
			verdict := "faultless"
			if !ev.OK {
				verdict = "rejected"
			}
			fmt.Fprintf(&sb, "  attempt %d: tentatively impute from row %d -> %s\n",
				ev.Attempt, ev.Donor+1, verdict)
		case obs.EvCandidateRejected:
			fmt.Fprintf(&sb, "    violates %s (witness row %d)\n", strings.Join(ev.Rules, "; "), ev.Witness+1)
		case obs.EvCellResolved:
			fmt.Fprintf(&sb, "  resolved: %q from donor row %d%s (dist %.3f, attempt %d)\n",
				ev.Value, ev.Donor+1, sourceSuffix(ev.Source), ev.Score, ev.Attempt)
		case obs.EvCellAbandoned:
			fmt.Fprintf(&sb, "  abandoned: %s\n", ev.Note)
		case obs.EvTraceTruncated:
			fmt.Fprintf(&sb, "  ... %d event(s) elided: %s\n", ev.N, ev.Note)
		}
	}
	return sb.String()
}

// sourceSuffix labels donors from the multi-dataset pool.
func sourceSuffix(source int) string {
	if source < 0 {
		return ""
	}
	return fmt.Sprintf(" [donor dataset %d]", source)
}

// distSuffix renders the per-attribute distances of a considered donor.
func distSuffix(dists []obs.AttrDist) string {
	if len(dists) == 0 {
		return ""
	}
	parts := make([]string, len(dists))
	for i, d := range dists {
		label := d.Name
		if label == "" {
			label = fmt.Sprintf("attr%d", d.Attr)
		}
		parts[i] = fmt.Sprintf("%s=%g", label, d.Dist)
	}
	return " (" + strings.Join(parts, ", ") + ")"
}

// formatRules renders a cluster's RFDcs with schema attribute names.
func formatRules(deps rfd.Set, schema *dataset.Schema) []string {
	out := make([]string, len(deps))
	for i, dep := range deps {
		out[i] = dep.Format(schema)
	}
	return out
}

// maxDonorTraces caps DonorConsidered events per cluster: the ranked
// head is the decision-relevant part, and a cell with thousands of
// candidates must not dominate the trace.
const maxDonorTraces = 16

// traceDonorEvents emits DonorConsidered events for the first
// (ranked-best) candidates with each donor's per-attribute LHS
// distances against the incomplete tuple. Only sampled cells pay for
// this second pass over the ranked candidates' LHS distances.
func traceDonorEvents(ct *obs.CellTrace, v *engine.View, row int, deps rfd.Set,
	n int, at func(k int) (flat int, score float64)) {

	if ct == nil || n == 0 {
		return
	}
	schema := v.Relation().Schema()
	needed := unionLHSAttrs(deps, schema.Len())
	shown := n
	if shown > maxDonorTraces {
		shown = maxDonorTraces
	}
	for k := 0; k < shown; k++ {
		flat, score := at(k)
		source, donor := v.SourceOf(flat)
		dists := make([]obs.AttrDist, 0, len(needed))
		for _, a := range needed {
			d := v.Distance(a, row, flat)
			if !distance.IsMissing(d) {
				dists = append(dists, obs.AttrDist{Attr: a, Name: schema.Attr(a).Name, Dist: d})
			}
		}
		ct.Add(obs.DonorConsidered(donor, source, dists, score))
	}
	if n > shown {
		ct.Add(obs.TraceTruncated(n-shown, "further ranked candidates not traced"))
	}
}

// unionLHSAttrs returns the sorted union of LHS attribute positions.
func unionLHSAttrs(deps rfd.Set, m int) []int {
	seen := make([]bool, m)
	out := make([]int, 0, m)
	for _, dep := range deps {
		for _, c := range dep.LHS {
			if !seen[c.Attr] {
				seen[c.Attr] = true
				out = append(out, c.Attr)
			}
		}
	}
	sort.Ints(out)
	return out
}
