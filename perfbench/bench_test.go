package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestWorkloadsShortRun runs each workload briefly, untraced and traced:
// every op must check out, every metric of the mode must be reported, and
// the ledger's parts must add up to no more than the whole.
func TestWorkloadsShortRun(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 7, measure: 500 * time.Millisecond, trace: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w, traced, res.Attempted, res.Failed)
			}
			for _, d := range metricDefs {
				if _, ok := res.Metrics[d.name]; ok != (d.trace == traced) {
					t.Errorf("%s trace=%v: metric %s reported=%v", w, traced, d.name, ok)
				}
			}
			if !traced {
				continue
			}
			l := res.ledger
			if l == nil || l.Ops == 0 {
				t.Fatalf("%s: traced run has no ledger ops", w)
			}
			sum := l.Unexplained
			for name, ns := range l.Parts {
				if ns < 0 {
					t.Errorf("%s: ledger part %s is negative: %d", w, name, ns)
				}
				sum += ns
			}
			if l.Unexplained < 0 || sum != l.TotalNs {
				t.Errorf("%s: ledger parts %d + unexplained %d != whole %d", w, sum-l.Unexplained, l.Unexplained, l.TotalNs)
			}
		}
	}
}

// TestLedgerCountsParallelChildrenOnce charges overlapping sibling spans
// (the trader's parallel resolutions) once, and what no child covers to
// the unexplained remainder.
func TestLedgerCountsParallelChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Start: 0, End: 100},
		{Name: "trading.query", Op: 1, Start: 10, End: 90},
		{Name: "trading.resolve", Op: 1, Start: 20, End: 60},
		{Name: "trading.resolve", Op: 1, Start: 30, End: 70},
		{Name: "trading.resolve", Op: 1, Start: 40, End: 50},
	}
	l := buildLedger(spans, linkParents(spans))
	if got := l.Parts["trading.resolve"]; got != 50 {
		t.Errorf("resolve self = %d, want 50 (the union of [20,70])", got)
	}
	if got := l.Parts["trading.query"]; got != 30 {
		t.Errorf("query self = %d, want 30", got)
	}
	if l.Unexplained != 20 || l.TotalNs != 100 {
		t.Errorf("unexplained %d of %d, want 20 of 100", l.Unexplained, l.TotalNs)
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	h := newHist()
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		if got := h.quantile(c.q); got < c.want*0.996 || got > c.want*1.004 {
			t.Errorf("q%.2f = %.3f us, want %.0f within 0.4%%", c.q, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, names[i], workloads[i])
		}
	}
	var listed []metricDef
	for _, d := range bj.EndToEnd {
		listed = append(listed, metricDef{d.Name, d.Unit, d.Better, false})
	}
	for _, d := range bj.PerLayer {
		listed = append(listed, metricDef{d.Name, d.Unit, d.Better, true})
	}
	if len(listed) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, program reports %d", len(listed), len(metricDefs))
	}
	for i := range listed {
		if listed[i] != metricDefs[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, listed[i], metricDefs[i])
		}
	}
}
