package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// record is one run as --out appends it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchFile is the part of BENCHMARK.json compare reads: the bounds.
type benchFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// comparison is one (workload, metric) row of compare's report.
type comparison struct {
	Workload, Metric             string
	BaseN, NewN                  int
	BaseQ1, BaseMed, BaseQ3      float64
	NewQ1, NewMed, NewQ3         float64
	Worse, BaseSpread, NewSpread float64
	Bound                        float64
	Label                        string
}

// compareRuns labels every (workload, end-to-end metric) pairing of two
// sets of untraced runs:
//
//   - unresolved: either side's quartile spread (IQR / median) exceeds the
//     bound, unless every new run beats (or loses to) every base run;
//   - worse: the new median is worse than the base median by more than
//     the bound;
//   - improved: the new median is better by more than the base's own
//     spread and the quartile ranges do not overlap;
//   - within bound: anything else.
func compareRuns(bench benchFile, base, next []record) []comparison {
	type key struct{ w, m string }
	collect := func(rs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range rs {
			if r.Trace != 0 {
				continue
			}
			for name, mv := range r.Result.Metrics {
				out[key{r.Workload, name}] = append(out[key{r.Workload, name}], mv.Value)
			}
		}
		return out
	}
	a, b := collect(base), collect(next)
	var workloads []string
	seen := map[string]bool{}
	for _, r := range base {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	sort.Strings(workloads)
	var out []comparison
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			xs, ys := a[key{w, m.Name}], b[key{w, m.Name}]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			c := comparison{Workload: w, Metric: m.Name, BaseN: len(xs), NewN: len(ys), Bound: m.Bound}
			c.BaseQ1, c.BaseMed, c.BaseQ3 = pyQuartiles(xs)
			c.NewQ1, c.NewMed, c.NewQ3 = pyQuartiles(ys)
			c.BaseSpread = spread(c.BaseQ1, c.BaseMed, c.BaseQ3)
			c.NewSpread = spread(c.NewQ1, c.NewMed, c.NewQ3)
			sign := 1.0 // positive Worse means the new side is worse
			if m.Better == "higher" {
				sign = -1
			}
			if c.BaseMed != 0 {
				c.Worse = sign * (c.NewMed - c.BaseMed) / math.Abs(c.BaseMed)
			}
			allBetter, allWorse := true, true
			for _, x := range xs {
				for _, y := range ys {
					d := sign * (y - x)
					allBetter = allBetter && d < 0
					allWorse = allWorse && d > 0
				}
			}
			noisy := math.Max(c.BaseSpread, c.NewSpread) > c.Bound
			overlap := c.NewQ1 <= c.BaseQ3 && c.NewQ3 >= c.BaseQ1
			switch {
			case noisy && allBetter:
				c.Label = "improved"
			case noisy && allWorse:
				c.Label = "worse"
			case noisy:
				c.Label = "unresolved"
			case c.Worse > c.Bound:
				c.Label = "worse"
			case -c.Worse > c.BaseSpread && !overlap:
				c.Label = "improved"
			default:
				c.Label = "within bound"
			}
			out = append(out, c)
		}
	}
	return out
}

func spread(q1, med, q3 float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// compareMain is `perfbench compare [--bench BENCHMARK.json] base new`.
func compareMain(args []string, w io.Writer) error {
	benchPath := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "--bench" {
		benchPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare [--bench BENCHMARK.json] base.jsonl new.jsonl")
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bench benchFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRecords(args[0])
	if err != nil {
		return err
	}
	next, err := readRecords(args[1])
	if err != nil {
		return err
	}
	rows := compareRuns(bench, base, next)
	if len(rows) == 0 {
		return fmt.Errorf("no untraced runs of a common workload in %s and %s", args[0], args[1])
	}
	fmt.Fprintf(w, "%-10s %-16s %5s %36s %36s %8s %7s  %s\n", "workload", "metric", "runs", "base q1 / median / q3", "new q1 / median / q3", "worse by", "bound", "label")
	for _, c := range rows {
		fmt.Fprintf(w, "%-10s %-16s %2d/%-2d %11.5g %11.5g %11.5g  %11.5g %11.5g %11.5g %+7.1f%% %6.0f%%  %s\n",
			c.Workload, c.Metric, c.BaseN, c.NewN, c.BaseQ1, c.BaseMed, c.BaseQ3, c.NewQ1, c.NewMed, c.NewQ3,
			100*c.Worse, 100*c.Bound, c.Label)
	}
	return nil
}
