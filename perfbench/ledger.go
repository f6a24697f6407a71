package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// workloadDoc records what a workload runs and why it exists.
type workloadDoc struct {
	Name        string   `json:"name"`
	Why         string   `json:"why"`
	Seed        string   `json:"seed"`
	Dataset     string   `json:"dataset"`
	Mix         []string `json:"mix"`
	Loop        string   `json:"loop"`
	Engine      string   `json:"engine"`
	FlushPolicy string   `json:"flushPolicy"`
	Foreground  string   `json:"foreground"`
	Note        string   `json:"note,omitempty"`
}

const (
	datasetDoc = "16 series root.dash.s00..s15 x 65536 points (1,048,576); values from the four workload presets in turn at 1 ms spacing, " +
		"in 256 ms bursts separated by 0.75-1 s gaps (about 290 s per series); loaded in 16 rounds of 4096 points per series (one WriteBatch + Flush each, cut into chunks of 1000), " +
		"10% of (series, round) pairs written as their even points, the odd points following two rounds later (overlapping unsequence chunks), " +
		"3 range deletes of 20-400 ms per series over flushed data"
	engineDoc = "m4server defaults: 1 shard, flush threshold 1000, Gorilla, rollup pyramid on, no chunk cache, " +
		"self-metrics sampled into root.sys.* every second, no admission limits; handler driven in-process through httptest"
	flushDoc = "automatic: a shard flushes when a series holds 1000 buffered points (chunk size 1000); every flush saves the pyramid"
	seedDoc  = "--seed (a command-line argument) draws the dataset, the request stream and the appended values; the program sees only the generated requests"
)

var workloadDocs = []workloadDoc{
	{
		Name:    "dashboard",
		Why:     "read-only panels: puts the time in Snapshot, the m4lsm planner, pyramid and waves, chunk I/O and decode, and viz; WAL and ingest are idle",
		Seed:    seedDoc,
		Dataset: datasetDoc,
		Mix: []string{
			"30% /render single series M4", "10% /render root.dash.* M4", "10% /render single series repr=minmaxlttb",
			"30% /query single series M4(*)", "10% /query root.dash.* M4(*)", "10% /query single series REPRESENT minmax",
			"all w=1000 (renders h=400) over ranges of 1/1 to 1/100 of the full extent (log-uniform zoom, stratified), starting at a uniformly random millisecond",
			"kinds follow a fixed ten-request cycle; the first cycle of every 80 reads is cross-checked against m4udf in the traced pass",
		},
		Loop:        "closed loop, 2 clients",
		Engine:      engineDoc + "; SyncWAL off",
		FlushPolicy: flushDoc + " (nothing is written but the self-metrics history, which stays in the memtable)",
		Foreground:  "/render + /query",
	},
	{
		Name:        "ingest",
		Why:         "write-only sensors: puts the time in /write parsing, enqueue, group commit, fsync, flush and pyramid maintenance; every read layer is idle",
		Seed:        seedDoc,
		Dataset:     datasetDoc,
		Mix:         []string{"100% /write of 16 series x 64 consecutive points (1024 lines) appended past the loaded data"},
		Loop:        "closed loop, 1 writer client",
		Engine:      engineDoc + "; SyncWAL on",
		FlushPolicy: flushDoc + " (about every 16 bodies)",
		Foreground:  "/write",
		Note: "not listed in BENCHMARK.json: on a 2-vCPU VM whose speed drifts with CPU steal, its median write latency spread 0.16-0.49 " +
			"of the median across ten seeds, past the 0.25 bound; run it with --workload ingest. live covers the same write-path layers",
	},
	{
		Name:    "live",
		Why:     "reads of the live tail beside a steady durable writer: queries touch the memtable and pyramid-stale spans and contend with flushes for the shard lock",
		Seed:    seedDoc,
		Dataset: datasetDoc,
		Mix: []string{
			"writer: /write of 16 series x 50 points every 50 ms (16,000 points/s), timed from the due time",
			"reader: alternating /render and /query, single series M4, w=1000, over the trailing 20 s ending at the acknowledged write head",
		},
		Loop:        "open-loop writer at 20 bodies/s + 1 closed-loop reader",
		Engine:      engineDoc + "; SyncWAL on",
		FlushPolicy: flushDoc + " (about once a second)",
		Foreground:  "/render + /query + /write (reads and writes pooled in ops_per_s, p50_ms and tail_ms; the writer's own latency and lateness are printed and traced)",
	},
}

// ledger is what describe prints and ledger.json holds.
type ledger struct {
	Workloads []workloadDoc `json:"workloads"`
	EndToEnd  []metricDef   `json:"endToEnd"`
	PerLayer  []metricDef   `json:"perLayer"`
	Trace     string        `json:"trace"`
}

func describe(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ledger{
		Workloads: workloadDocs,
		EndToEnd:  endToEnd,
		PerLayer:  perLayer,
		Trace: fmt.Sprintf("--trace 1 runs half the phase untraced and half traced; each traced request goes through the handler, "+
			"then is replayed call by call through the layers' public functions, one span per call (operator phases come from its own trace); "+
			"exact counts average over the first %d requests of the seeded stream, which every traced run replays; "+
			"the layer spans must cover all but %.0f%% of the replayed time", exactPrefix, 100*traceTolerance),
	})
}
