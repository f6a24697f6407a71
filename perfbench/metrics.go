package main

import (
	"math"
	"sort"
)

// metricDef documents one reported metric. The table is the single source
// for names, units and meanings: `perfbench describe` prints it, ledger.json
// is its checked-in copy, and the smoke test holds BENCHMARK.json, the
// ledger and every run's output to it. Bounds live in BENCHMARK.json only.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Kind is "timed" (varies run to run) or "exact" (a count that repeats
	// bit-for-bit for a fixed seed on the workloads in ExactOn; timed on
	// the others, where concurrent writers make it depend on timing).
	Kind    string   `json:"kind"`
	ExactOn []string `json:"exactOn,omitempty"`
	// Layer names the module a per-layer metric measures.
	Layer string `json:"layer,omitempty"`
	// Moves names the end-to-end metric and workload the layer metric
	// should move when an optimisation changes it.
	Moves   string `json:"moves,omitempty"`
	Meaning string `json:"meaning"`
}

// endToEnd metrics describe every request a workload sends: reads on
// dashboard, writes on ingest, both on live. Every workload reports every
// one of them, and none can be 0 on a working run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Kind: "timed",
		Meaning: "median over the run's set-ups of opening the engine and bulk-loading the seeded dataset through Engine.WriteBatch + Flush"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Kind: "timed",
		Meaning: "requests completed per second: /render + /query on dashboard, /write (1024 points each) on ingest, /render + /query + the open-loop /write (800 points each, 20 a second when on time) on live"},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Kind: "timed",
		Meaning: "median request latency, over reads and writes alike on live, where a write is timed from its due time; a failed request counts as +Inf"},
	{Name: "tail_ms", Unit: "ms", Better: "lower", Kind: "timed",
		Meaning: "request latency, over the same requests as p50_ms, at the highest percentile (at most p99) with at least 10 samples beyond it; the run prints which percentile and the sample count"},
	{Name: "bytes_per_point", Unit: "B", Better: "lower", Kind: "timed",
		Meaning: "bytes in the database directory at the end of the run per user point stored; on dashboard it repeats for a seed to about 1e-5, the ingest workers' batching moving tsfile framing by a few bytes"},
	{Name: "heap_peak_mb", Unit: "MB", Better: "lower", Kind: "timed",
		Meaning: "peak live Go heap during the measured phase: the largest runtime/metrics /gc/heap/live:bytes (the heap marked live by a GC), sampled every 20 ms"},
}

var dash = []string{"dashboard"}

// perLayer metrics come from the traced pass, which replays each request
// through the layers' public functions. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "server.self_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "server", Moves: "p50_ms on dashboard",
		Meaning: "median per read request of the HTTP handler's total minus the replayed layer calls"},
	{Name: "server.json_encode_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "server", Moves: "p50_ms on dashboard (the /query half)",
		Meaning: "median encoding/json time of a returned m4ql.Result"},
	{Name: "server.write_self_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "server", Moves: "p50_ms on ingest and live",
		Meaning: "median /write latency minus median Engine.WriteBatch latency for the same bodies"},
	{Name: "m4ql.parse_us", Unit: "us", Better: "lower", Kind: "timed", Layer: "m4ql", Moves: "p50_ms on dashboard",
		Meaning: "median m4ql.Parse time"},
	{Name: "m4ql.exec_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4ql", Moves: "p50_ms on dashboard",
		Meaning: "median m4ql.ExecuteContext time"},
	{Name: "lsm.snapshot_p50_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "p50_ms on dashboard (wildcard renders)",
		Meaning: "median Engine.Snapshot time per series"},
	{Name: "lsm.snapshot_tail_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "tail_ms on live",
		Meaning: "Engine.Snapshot time per series at the tail percentile rule"},
	{Name: "lsm.snapshot_chunks", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "lsm", Moves: "p50_ms on dashboard; grows on ingest and live",
		Meaning: "mean len(snap.Chunks) per series snapshot"},
	{Name: "lsm.memtable_points", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "lsm", Moves: "p50_ms on live",
		Meaning: "mean memtable points in the snapshots a replayed read takes (the unflushed tail of the series it reads)"},
	{Name: "lsm.writebatch_p50_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "p50_ms on ingest and live",
		Meaning: "median Engine.WriteBatch latency (traced writers alternate /write and direct WriteBatch)"},
	{Name: "lsm.writebatch_tail_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "tail_ms on ingest and live",
		Meaning: "Engine.WriteBatch latency at the tail percentile rule"},
	{Name: "lsm.wal_records_per_commit", Unit: "count", Better: "higher", Kind: "timed", Layer: "lsm", Moves: "ops_per_s on ingest",
		Meaning: "lsm_wal_group_records_total / lsm_wal_group_commits_total over the traced phase"},
	{Name: "lsm.wal_commits", Unit: "count", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "ops_per_s on ingest",
		Meaning: "lsm_wal_group_commits_total over the traced phase (one fsync each with SyncWAL)"},
	{Name: "lsm.flushes", Unit: "count", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "tail_ms on ingest and live",
		Meaning: "lsm_flushes_total over the traced phase"},
	{Name: "lsm.flush_s", Unit: "s", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "tail_ms on ingest and live",
		Meaning: "sum of lsm_flush_seconds over the traced phase"},
	{Name: "lsm.backpressure", Unit: "count", Better: "lower", Kind: "timed", Layer: "lsm", Moves: "tail_ms on ingest",
		Meaning: "lsm_ingest_backpressure_total over the traced phase"},
	{Name: "pyramid.saves", Unit: "count", Better: "lower", Kind: "timed", Layer: "lsm (pyramid)", Moves: "tail_ms and ops_per_s on ingest; tail_ms on live",
		Meaning: "lsm_pyramid_saves_total over the traced phase"},
	{Name: "pyramid.file_bytes", Unit: "B", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "lsm (pyramid)", Moves: "ops_per_s on ingest",
		Meaning: "size of pyramid.pyr at the end of the traced phase"},
	{Name: "pyramid.save_bytes_per_point", Unit: "B", Better: "lower", Kind: "timed", Layer: "lsm (pyramid)", Moves: "ops_per_s on ingest",
		Meaning: "pyramid saves x pyramid.pyr bytes / points written in the traced phase"},
	{Name: "pyramid.span_hit_ratio", Unit: "ratio", Better: "higher", Kind: "exact", ExactOn: dash, Layer: "lsm (pyramid)", Moves: "p50_ms on dashboard",
		Meaning: "PyramidSpans / (spans x series) per replayed read"},
	{Name: "pyramid.cells", Unit: "count", Better: "higher", Kind: "exact", ExactOn: dash, Layer: "lsm (pyramid)", Moves: "p50_ms on dashboard",
		Meaning: "mean PyramidCells per replayed read"},
	{Name: "pyramid.fallback_spans", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "lsm (pyramid)", Moves: "tail_ms on live",
		Meaning: "mean PyramidFallbackSpans per replayed read"},
	{Name: "m4lsm.compute_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "median operator time per read: ReduceMultiContext for renders, the operator phases inside ExecuteContext for queries"},
	{Name: "m4lsm.plan_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "median 'plan' phase of the operator trace"},
	{Name: "m4lsm.wave_fp_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "median 'wave-fp' phase of the operator trace"},
	{Name: "m4lsm.wave_rest_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "median 'wave-rest' phase of the operator trace"},
	{Name: "m4lsm.assemble_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "median 'assemble' phase of the operator trace"},
	{Name: "m4lsm.candidate_rounds", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "mean CandidateRounds per replayed read"},
	{Name: "m4lsm.pruned_ratio", Unit: "ratio", Better: "higher", Kind: "exact", ExactOn: dash, Layer: "m4lsm", Moves: "p50_ms on dashboard",
		Meaning: "ChunksPruned / snapshot chunks over the replayed reads"},
	{Name: "stepreg.exist_probes", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "stepreg", Moves: "p50_ms on dashboard",
		Meaning: "mean ExistProbes per replayed read"},
	{Name: "stepreg.boundary_probes", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "stepreg", Moves: "p50_ms on dashboard",
		Meaning: "mean BoundaryProbes per replayed read"},
	{Name: "storage.chunks_loaded", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "storage", Moves: "tail_ms on dashboard",
		Meaning: "mean ChunksLoaded + TimeBlocksLoaded per replayed read"},
	{Name: "storage.bytes_read", Unit: "B", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "storage / tsfile", Moves: "tail_ms on dashboard",
		Meaning: "mean BytesRead per replayed read"},
	{Name: "storage.points_decoded", Unit: "count", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "storage / encoding", Moves: "tail_ms on dashboard",
		Meaning: "mean PointsDecoded per replayed read"},
	{Name: "storage.decoded_per_output", Unit: "ratio", Better: "lower", Kind: "exact", ExactOn: dash, Layer: "storage", Moves: "p50_ms on dashboard",
		Meaning: "PointsDecoded / output points over the replayed reads"},
	{Name: "viz.rasterize_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "viz", Moves: "p50_ms on dashboard and live, not on /query",
		Meaning: "median ViewportForAll + RasterizeOnto time per render"},
	{Name: "viz.png_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "viz", Moves: "p50_ms on dashboard and live, not on /query",
		Meaning: "median Canvas.WritePNG time per render"},
	{Name: "go.alloc_mb_per_req", Unit: "MB", Better: "lower", Kind: "timed", Layer: "runtime", Moves: "ops_per_s on dashboard",
		Meaning: "runtime/metrics allocated bytes over the untraced half / foreground requests"},
	{Name: "live.lateness_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "benchmark", Moves: "tail_ms on live",
		Meaning: "how late the open-loop writer sent its bodies, at the tail percentile rule (live only)"},
	{Name: "live.write_p50_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "server", Moves: "p50_ms on live",
		Meaning: "median open-loop /write latency measured from the due time (live only)"},
	{Name: "live.write_tail_ms", Unit: "ms", Better: "lower", Kind: "timed", Layer: "server", Moves: "tail_ms on live",
		Meaning: "open-loop /write latency from the due time at the tail percentile rule (live only)"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Kind: "timed", Layer: "benchmark",
		Meaning: "foreground HTTP p50 with tracing / without, within the traced run (its first half is untraced)"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower", Kind: "timed", Layer: "benchmark",
		Meaning: "share of the replayed request time no layer span covers; the run fails above the stated tolerance"},
	{Name: "trace.requests", Unit: "count", Better: "higher", Kind: "timed", Layer: "benchmark",
		Meaning: "requests replayed in the traced phase"},
}

// tailQuantile is the highest quantile, capped at 0.99, that leaves at
// least 10 of n samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 20 {
		return 0.5
	}
	return math.Min(0.99, 1-10/float64(n))
}

// quantile returns the q-quantile of sorted samples: the smallest value
// with at least a share q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// dist is a latency sample set in milliseconds.
type dist []float64

func (d dist) sorted() dist {
	out := append(dist(nil), d...)
	sort.Float64s(out)
	return out
}

func (d dist) p50() float64 { return quantile(d.sorted(), 0.5) }

func (d dist) tail() float64 { return quantile(d.sorted(), tailQuantile(len(d))) }

// pyQuartiles mirrors Python's statistics.quantiles(values, n=4) with its
// default exclusive method, and returns the quartiles and the median as
// statistics.median computes it.
func pyQuartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
