// Benchmarks regenerating the paper's evaluation (one per table/figure,
// DESIGN.md §4) plus the ablation studies of DESIGN.md §6. The cmd/m4bench
// binary prints the full figure series; these benches make the same
// comparisons runnable via `go test -bench`.
//
// Storage states are built once per benchmark; iterations measure query
// latency only, mirroring the paper's repeated-query methodology.
package m4lsm

import (
	"fmt"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	intm4lsm "m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/workload"
)

const (
	benchPoints    = 50_000
	benchChunkSize = 500 // 100 chunks: well above the largest benched w
)

type benchDB struct {
	engine *lsm.Engine
	id     string
	tqs    int64
	tqe    int64
}

func buildBenchDB(b *testing.B, preset workload.Preset, n, chunkSize int, overlap float64, del workload.DeleteOptions, codec encoding.Codec) *benchDB {
	b.Helper()
	data := preset.Generate(n, 42)
	e, err := lsm.Open(lsm.Options{
		Dir: b.TempDir(), FlushThreshold: chunkSize, DisableWAL: true, Codec: codec,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if err := workload.Load(e, preset.Name, data, workload.LoadOptions{
		ChunkSize: chunkSize, OverlapFraction: overlap, Seed: 42,
	}); err != nil {
		b.Fatal(err)
	}
	if del.Count > 0 {
		if err := workload.ApplyDeletes(e, preset.Name, data, del); err != nil {
			b.Fatal(err)
		}
	}
	return &benchDB{engine: e, id: preset.Name, tqs: data[0].T, tqe: data[len(data)-1].T + 1}
}

func (db *benchDB) query(b *testing.B, q m4.Query, useLSM bool, opts intm4lsm.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := db.engine.Snapshot(db.id, q.Range())
		if err != nil {
			b.Fatal(err)
		}
		if useLSM {
			_, err = intm4lsm.ComputeWithOptions(snap, q, opts)
		} else {
			_, err = m4udf.Compute(snap, q)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func forOperators(b *testing.B, fn func(b *testing.B, useLSM bool)) {
	b.Run("M4-UDF", func(b *testing.B) { fn(b, false) })
	b.Run("M4-LSM", func(b *testing.B) { fn(b, true) })
}

// BenchmarkTable2Datasets measures the four dataset generators (Table 2).
func BenchmarkTable2Datasets(b *testing.B) {
	for _, p := range workload.Presets() {
		b.Run(p.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data := p.Generate(10_000, 42)
				if len(data) != 10_000 {
					b.Fatal("bad generator output")
				}
			}
		})
	}
}

// BenchmarkFig10VaryW is Figure 10: latency vs the number of time spans.
func BenchmarkFig10VaryW(b *testing.B) {
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.1,
		workload.DeleteOptions{}, encoding.CodecGorilla)
	for _, w := range []int{10, 100, 1000, 10000} {
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: w}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			forOperators(b, func(b *testing.B, useLSM bool) {
				db.query(b, q, useLSM, intm4lsm.Options{})
			})
		})
	}
}

// BenchmarkFig11VaryRange is Figure 11: latency vs the query range length.
func BenchmarkFig11VaryRange(b *testing.B) {
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.1,
		workload.DeleteOptions{}, encoding.CodecGorilla)
	full := db.tqe - db.tqs
	for _, frac := range []int{16, 4, 1} { // 1/16, 1/4, 1/1 of the range
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqs + full/int64(frac), W: 100}
		b.Run(fmt.Sprintf("range=1_%d", frac), func(b *testing.B) {
			forOperators(b, func(b *testing.B, useLSM bool) {
				db.query(b, q, useLSM, intm4lsm.Options{})
			})
		})
	}
}

// BenchmarkFig12VaryOverlap is Figure 12: latency vs chunk overlap.
func BenchmarkFig12VaryOverlap(b *testing.B) {
	for _, overlap := range []float64{0, 0.25, 0.5} {
		db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, overlap,
			workload.DeleteOptions{}, encoding.CodecGorilla)
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
		b.Run(fmt.Sprintf("overlap=%.0f%%", overlap*100), func(b *testing.B) {
			forOperators(b, func(b *testing.B, useLSM bool) {
				db.query(b, q, useLSM, intm4lsm.Options{})
			})
		})
	}
}

// BenchmarkFig13VaryDeletePct is Figure 13: latency vs delete frequency.
func BenchmarkFig13VaryDeletePct(b *testing.B) {
	nChunks := benchPoints / benchChunkSize
	for _, pct := range []float64{0, 0.25, 0.5} {
		db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.1,
			workload.DeleteOptions{Count: int(float64(nChunks) * pct), RangeMillis: 60_000, Seed: 7},
			encoding.CodecGorilla)
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
		b.Run(fmt.Sprintf("deletes=%.0f%%", pct*100), func(b *testing.B) {
			forOperators(b, func(b *testing.B, useLSM bool) {
				db.query(b, q, useLSM, intm4lsm.Options{})
			})
		})
	}
}

// BenchmarkFig14VaryDeleteRange is Figure 14: latency vs delete range.
func BenchmarkFig14VaryDeleteRange(b *testing.B) {
	nChunks := benchPoints / benchChunkSize
	chunkSpan := int64(benchChunkSize) * workload.KOB().IntervalMs
	for _, mult := range []float64{0.5, 2, 8} {
		db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.1,
			workload.DeleteOptions{Count: nChunks / 10, RangeMillis: int64(float64(chunkSpan) * mult), Seed: 7},
			encoding.CodecGorilla)
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
		b.Run(fmt.Sprintf("rangeMult=%g", mult), func(b *testing.B) {
			forOperators(b, func(b *testing.B, useLSM bool) {
				db.query(b, q, useLSM, intm4lsm.Options{})
			})
		})
	}
}

// BenchmarkM4LSMParallel sweeps the worker count of the parallel M4-LSM
// operator on an overlap-and-delete-heavy state with w=1000 (the shape
// where the span×G task fan-out has real work per task). Speedup over the
// parallelism=1 run is bounded by GOMAXPROCS; results are byte-identical
// and ChunksLoaded is constant across the sweep (singleflight dedupe).
func BenchmarkM4LSMParallel(b *testing.B) {
	nChunks := benchPoints / benchChunkSize
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.3,
		workload.DeleteOptions{Count: nChunks / 5, RangeMillis: 60_000, Seed: 7},
		encoding.CodecGorilla)
	q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 1000}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			db.query(b, q, true, intm4lsm.Options{Parallelism: par})
		})
	}
}

// BenchmarkFragmentQuery is the dashboard-shaped operator query: an
// unaligned range (neither edge on a pyramid cell boundary, so every
// pyramid span runs two boundary-fragment candidate loops), the rollup
// pyramid on, and Options.Metrics set, so every task is timed into
// m4_task_seconds. allocs/op tracks the per-task bookkeeping.
func BenchmarkFragmentQuery(b *testing.B) {
	nChunks := benchPoints / benchChunkSize
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.3,
		workload.DeleteOptions{Count: nChunks / 5, RangeMillis: 60_000, Seed: 7},
		encoding.CodecGorilla)
	span := db.tqe - db.tqs
	q := m4.Query{Tqs: db.tqs + span/97 + 777, Tqe: db.tqe - span/89 - 12345, W: 1000}
	reg := obs.NewRegistry()
	var pyramidSpans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := db.engine.Snapshot(db.id, q.Range())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := intm4lsm.ComputeWithOptions(snap, q, intm4lsm.Options{Metrics: reg}); err != nil {
			b.Fatal(err)
		}
		pyramidSpans += snap.Stats.Load().PyramidSpans
	}
	b.ReportMetric(float64(pyramidSpans)/float64(b.N), "pyramidSpans/op")
}

// BenchmarkM4UDFParallel is the same sweep for the baseline's per-span-block
// parallel scan.
func BenchmarkM4UDFParallel(b *testing.B) {
	nChunks := benchPoints / benchChunkSize
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.3,
		workload.DeleteOptions{Count: nChunks / 5, RangeMillis: 60_000, Seed: 7},
		encoding.CodecGorilla)
	q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 1000}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := db.engine.Snapshot(db.id, q.Range())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m4udf.ComputeWithOptions(snap, q, m4udf.Options{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndex compares step-regression probes against plain
// binary search inside the operator (DESIGN.md §6).
func BenchmarkAblationIndex(b *testing.B) {
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.5,
		workload.DeleteOptions{}, encoding.CodecGorilla)
	q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
	b.Run("step-regression", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{})
	})
	b.Run("binary-search", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{DisableStepIndex: true})
	})
}

// BenchmarkAblationLazy compares lazy loading against eagerly
// materializing every overlapping chunk.
func BenchmarkAblationLazy(b *testing.B) {
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.2,
		workload.DeleteOptions{Count: 10, RangeMillis: 60_000, Seed: 7}, encoding.CodecGorilla)
	q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
	b.Run("lazy", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{})
	})
	b.Run("eager", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{EagerLoad: true})
	})
}

// BenchmarkAblationPartialLoad compares timestamp-only probe loads against
// full chunk loads.
func BenchmarkAblationPartialLoad(b *testing.B) {
	db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.5,
		workload.DeleteOptions{}, encoding.CodecGorilla)
	q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
	b.Run("partial", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{})
	})
	b.Run("full", func(b *testing.B) {
		db.query(b, q, true, intm4lsm.Options{DisablePartialLoad: true})
	})
}

// BenchmarkAblationCodec compares the Gorilla/delta codecs against plain
// encoding under the baseline (which decodes every chunk it loads).
func BenchmarkAblationCodec(b *testing.B) {
	for _, codec := range []encoding.Codec{encoding.CodecGorilla, encoding.CodecPlain} {
		db := buildBenchDB(b, workload.KOB(), benchPoints, benchChunkSize, 0.1,
			workload.DeleteOptions{}, codec)
		q := m4.Query{Tqs: db.tqs, Tqe: db.tqe, W: 100}
		b.Run(codec.String(), func(b *testing.B) {
			db.query(b, q, false, intm4lsm.Options{})
		})
	}
}

// BenchmarkMergeReader measures the substrate the baseline stands on: a
// full merge of the snapshot (the cost M4-LSM avoids).
func BenchmarkMergeReader(b *testing.B) {
	db := buildBenchDB(b, workload.MF03(), benchPoints, benchChunkSize, 0.3,
		workload.DeleteOptions{}, encoding.CodecGorilla)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := db.engine.Snapshot(db.id, series.TimeRange{Start: db.tqs, End: db.tqe})
		if err != nil {
			b.Fatal(err)
		}
		total := int64(0)
		it, err := mergeread.NewIterator(snap, series.TimeRange{Start: db.tqs, End: db.tqe})
		if err != nil {
			b.Fatal(err)
		}
		for {
			p, ok := it.Next()
			if !ok {
				break
			}
			total += p.T
		}
		if total == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkWritePath measures ingestion throughput including WAL and
// chunk-file flushes.
func BenchmarkWritePath(b *testing.B) {
	data := workload.MF03().Generate(benchPoints, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := lsm.Open(lsm.Options{Dir: b.TempDir(), FlushThreshold: 1000})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Write("s", data...); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
	b.SetBytes(int64(len(data)) * 16)
}

// BenchmarkAblationCache compares cold queries against an engine with a
// warm chunk cache (interactive pan/zoom workloads re-read chunks).
func BenchmarkAblationCache(b *testing.B) {
	for _, cacheBytes := range []int64{0, 64 << 20} {
		name := "cold"
		if cacheBytes > 0 {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			data := workload.KOB().Generate(benchPoints, 42)
			e, err := lsm.Open(lsm.Options{
				Dir: b.TempDir(), FlushThreshold: benchChunkSize,
				DisableWAL: true, ChunkCacheBytes: cacheBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := workload.Load(e, "KOB", data, workload.LoadOptions{
				ChunkSize: benchChunkSize, OverlapFraction: 0.1, Seed: 42,
			}); err != nil {
				b.Fatal(err)
			}
			q := m4.Query{Tqs: data[0].T, Tqe: data[len(data)-1].T + 1, W: 1000}
			db := &benchDB{engine: e, id: "KOB", tqs: q.Tqs, tqe: q.Tqe}
			db.query(b, q, true, intm4lsm.Options{})
		})
	}
}
