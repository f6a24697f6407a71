package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
)

// tinyParams runs the real benchmark at a size that takes seconds: 4 series
// of 5 load rounds, so the plan still holds out-of-order rounds and
// deletes.
func tinyParams(t *testing.T, workload string, trace bool) params {
	p := defaultParams()
	p.workload, p.seed, p.seconds, p.trace = workload, 7, 1, trace
	p.series, p.points, p.setups = 4, 5*roundPoints, 2
	p.dataRoot = t.TempDir()
	p.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	return p
}

func runTiny(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, lines, err := run(tinyParams(t, workload, trace))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
	}
	return res
}

// TestSmoke runs every workload untraced and traced at tiny size and
// checks that each named metric is reported with its unit, that the
// end-to-end ones are positive, and that no request failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDocs {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res := runTiny(t, w.Name, trace)
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", d.Name)
					case mv.Unit != d.Unit:
						t.Errorf("%s unit %q, want %q", d.Name, mv.Unit, d.Unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("%s = %v", d.Name, mv.Value)
					case !trace && mv.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, mv.Value)
					}
				}
			})
		}
	}
}

// TestExactCounts checks that the per-layer counts marked exact on
// dashboard repeat bit-for-bit for a seed.
func TestExactCounts(t *testing.T) {
	a, b := runTiny(t, "dashboard", true), runTiny(t, "dashboard", true)
	n := 0
	for _, d := range perLayer {
		for _, w := range d.ExactOn {
			if w != "dashboard" {
				continue
			}
			n++
			if x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value; x != y {
				t.Errorf("%s: %v then %v", d.Name, x, y)
			}
		}
	}
	if n == 0 {
		t.Fatal("no exact metrics")
	}
}

// TestLedger holds the checked-in ledger.json and BENCHMARK.json to the
// metric and workload tables.
func TestLedger(t *testing.T) {
	var buf bytes.Buffer
	if err := describe(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("ledger.json is stale: regenerate it with `perfbench describe > perfbench/ledger.json`")
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{}
	for _, w := range workloadDocs {
		docs[w.Name] = w.Why
	}
	if len(bench.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(bench.Workloads))
	}
	for _, w := range bench.Workloads {
		if why, ok := docs[w.Name]; !ok || w.Why != why || len(w.Why) > 200 {
			t.Errorf("workload %q %q does not match the ledger", w.Name, w.Why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, want %d/%d", len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bench.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v does not match %+v", i, m, d)
		}
	}
	for i, m := range bench.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v does not match %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, med, q3)
	}
}

func TestCompareLabels(t *testing.T) {
	bench := benchFile{EndToEnd: []boundDef{{Name: "p50_ms", Better: "lower", Bound: 0.1}}}
	runs := func(values ...float64) []record {
		var out []record
		for i, v := range values {
			out = append(out, record{Workload: "dashboard", Seed: int64(i), Result: result{
				Metrics: map[string]metricValue{"p50_ms": {Value: v, Unit: "ms"}}}})
		}
		return out
	}
	base := runs(10, 10.1, 10.2, 9.9, 10, 10.05)
	for _, c := range []struct {
		next  []record
		label string
	}{
		{runs(10, 10.1, 9.95, 10.05, 10, 10.1), "within bound"},
		{runs(12, 12.1, 12.2, 11.9, 12, 12.05), "worse"},
		{runs(8, 8.1, 8.2, 7.9, 8, 8.05), "improved"},
		{runs(5, 15, 9, 11, 4, 16), "unresolved"},
	} {
		rows := compareRuns(bench, base, c.next)
		if len(rows) != 1 || rows[0].Label != c.label {
			t.Errorf("got %+v, want label %q", rows, c.label)
		}
	}
}

// TestCrossCheckCoverage checks that the cross-checked reads of the exact
// prefix, which every traced run replays, cover every dashboard request
// kind and, on live, both renders and queries. traced() fails a run in
// which a replayed kind went unchecked, so TestSmoke holds whole runs to
// the same rule.
func TestCrossCheckCoverage(t *testing.T) {
	reqs := dashRequests(7, exactPrefix, 4, 0, 1_000_000)
	all, checked := map[string]bool{}, map[string]bool{}
	for i, r := range reqs {
		all[r.kind()] = true
		if crossChecked(int64(i)) {
			checked[r.kind()] = true
		}
	}
	if len(all) != 6 {
		t.Fatalf("%d dashboard kinds, want 6", len(all))
	}
	for k := range all {
		if !checked[k] {
			t.Errorf("dashboard kind %s is never cross-checked", k)
		}
	}
	render, query := false, false // live renders even positions
	for i := int64(0); i < exactPrefix; i++ {
		if crossChecked(i) {
			render, query = render || i%2 == 0, query || i%2 == 1
		}
	}
	if !render || !query {
		t.Errorf("live cross-checks renders %v, queries %v", render, query)
	}
}

// TestValidMinMax checks the tie rule of the representation cross-check:
// another point holding a span's extreme value passes, any other
// difference fails.
func TestValidMinMax(t *testing.T) {
	pt := func(t int64, v float64) series.Point { return series.Point{T: t, V: v} }
	// Two spans of 4 ms; span 0 holds its minimum 0 twice.
	merged := series.Series{pt(0, 0), pt(1, 5), pt(2, 0), pt(3, 2), pt(4, 3), pt(6, 1)}
	q := m4.Query{Tqs: 0, Tqe: 8, W: 2}
	oracle, err := reprops.Reduce(reprops.Spec{Kind: reprops.KindMinMax}, q, merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := validMinMax(oracle, q, merged); err != nil {
		t.Fatalf("oracle answer rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		out  series.Series
		ok   bool
	}{
		{"tied minimum", series.Series{pt(1, 5), pt(2, 0), pt(4, 3), pt(6, 1)}, true},
		{"not the minimum", series.Series{pt(1, 5), pt(3, 2), pt(4, 3), pt(6, 1)}, false},
		{"not a stored point", series.Series{pt(1, 5), pt(3, 0), pt(4, 3), pt(6, 1)}, false},
		{"missing span", series.Series{pt(0, 0), pt(1, 5)}, false},
		{"out of order", series.Series{pt(4, 3), pt(6, 1), pt(0, 0), pt(1, 5)}, false},
	} {
		if err := validMinMax(c.out, q, merged); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
