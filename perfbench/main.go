// Command perfbench is the repository's end-to-end benchmark. It loads a
// seeded 16-series dataset into an lsm.Engine, serves it through
// server.Handler in-process with m4server's defaults, drives one workload
// (dashboard, ingest or live) against /render, /query and /write, checks
// every answer, and prints the metrics by name with their units. The last
// output line is one JSON object: correct, attempted, failed, metrics.
//
//	perfbench --workload dashboard --seed 1 --seconds 10 --trace 0
//	perfbench describe                 the workload and metric ledger as JSON
//	perfbench compare base.jsonl new.jsonl
//
// --trace 1 runs the traced pass instead: every request is replayed
// through the layers' public functions and the per-layer metrics are
// reported. --out appends {workload, seed, trace, result} to a JSON-lines
// file that compare reads. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "describe":
			if err := describe(os.Stdout); err != nil {
				fatal(err)
			}
			return
		case "compare":
			if err := compareMain(os.Args[2:], os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
	}
	p := defaultParams()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&p.workload, "workload", "", "dashboard, ingest or live")
	fs.Int64Var(&p.seed, "seed", 1, "seed of the dataset and the request stream")
	fs.Float64Var(&p.seconds, "seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this JSON-lines file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	p.trace = *traceFlag == 1
	if p.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	res, lines, err := run(p)
	if err != nil {
		fatal(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: p.workload, Seed: p.seed, Trace: *traceFlag, Result: *res}); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
