package m4lsm

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// cellPyramid is a PyramidSource of fixed-width cells precomputed from the
// naive merge of a twin snapshot (so building it charges nothing to the
// snapshot under test). It drives the pyramid path — boundary-fragment
// tasks — without an engine.
type cellPyramid struct {
	width int64
	cells map[int64]storage.PyramidCell // by cell start
}

func newCellPyramid(twin *storage.Snapshot, width, horizon int64) *cellPyramid {
	p := &cellPyramid{width: width, cells: map[int64]storage.PyramidCell{}}
	for a := int64(0); a+width <= horizon; a += width {
		merged, err := testutil.NaiveMerge(twin, series.TimeRange{Start: a, End: a + width})
		if err != nil {
			panic(err)
		}
		c := storage.PyramidCell{Start: a, End: a + width}
		var ok bool
		c.First, c.Last, c.Bottom, c.Top, ok = storage.ComputeMeta(merged)
		c.Empty = !ok
		p.cells[a] = c
	}
	return p
}

func (p *cellPyramid) PlanSpan(start, end int64) ([]storage.PyramidCell, bool) {
	var out []storage.PyramidCell
	for a := (start + p.width - 1) / p.width * p.width; a+p.width <= end; a += p.width {
		c, ok := p.cells[a]
		if !ok {
			return nil, false
		}
		out = append(out, c)
	}
	return out, len(out) > 0
}

// batchAt rebuilds the snapshots of seeds, each with its own Stats, and
// with a cell pyramid when asked.
func batchAt(seeds []int64, pyramid bool) []*storage.Snapshot {
	snaps := make([]*storage.Snapshot, len(seeds))
	for i, seed := range seeds {
		snaps[i] = snapshotAt(seed)
		if pyramid {
			snaps[i].Pyramid = newCellPyramid(snapshotAt(seed), 8, testutil.DefaultGenConfig.TimeHorizon)
		}
	}
	return snaps
}

func statsOf(snaps []*storage.Snapshot) []storage.Stats {
	out := make([]storage.Stats, len(snaps))
	for i, s := range snaps {
		out[i] = s.Stats.Load()
	}
	return out
}

// scheduleFree drops the counters that depend on which worker reaches a
// chunk first: a probe that needs a chunk's timestamps before any task has
// loaded its data pays a timestamp-block load, one that comes after finds
// the timestamps already decoded. Every other counter is fixed by the task
// decomposition.
func scheduleFree(s storage.Stats) storage.Stats {
	s.TimeBlocksLoaded, s.BytesRead, s.PointsDecoded = 0, 0, 0
	return s
}

// TestWorkerStatsMatchAcrossParallelismAndBatching: the worker-local
// counters must land in each snapshot's own Stats exactly as the per-task
// accounting did. A batch at Parallelism 1 must equal running each series
// alone; at 2 and 8 workers every schedule-independent counter must equal
// the sequential ones, and the answers must not move.
func TestWorkerStatsMatchAcrossParallelismAndBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	horizon := testutil.DefaultGenConfig.TimeHorizon
	iters := 150
	if testing.Short() {
		iters = 40
	}
	for iter := 0; iter < iters; iter++ {
		seeds := make([]int64, 1+rng.Intn(4))
		for i := range seeds {
			seeds[i] = rng.Int63n(1 << 20)
		}
		tqs := rng.Int63n(horizon)
		q := m4.Query{Tqs: tqs, Tqe: tqs + 1 + rng.Int63n(horizon-tqs), W: 1 + rng.Intn(12)}
		pyramid := iter%2 == 0

		alone := batchAt(seeds, pyramid)
		want := make([][]m4.Aggregate, len(alone))
		for i, snap := range alone {
			out, err := ComputeContext(context.Background(), snap, q, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("iter %d series %d alone: %v", iter, i, err)
			}
			want[i] = out
		}
		wantStats := statsOf(alone)

		for _, par := range []int{1, 2, 8} {
			snaps := batchAt(seeds, pyramid)
			got, err := ComputeMultiContext(context.Background(), snaps, q, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("iter %d par %d: %v", iter, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d par %d: batched answers differ from per-series ones", iter, par)
			}
			for i, s := range statsOf(snaps) {
				w := wantStats[i]
				if par > 1 {
					s, w = scheduleFree(s), scheduleFree(w)
				}
				if s != w {
					t.Fatalf("iter %d par %d series %d (pyramid %v, q %+v): stats\n got %+v\nwant %+v",
						iter, par, i, pyramid, q, s, w)
				}
			}
		}
	}
}

// tasksRun counts the (span, G) tasks a pyramid-free M4 query runs: one FP
// task per span some chunk overlaps, three more per span FP found
// non-empty.
func tasksRun(snap *storage.Snapshot, q m4.Query, out []m4.Aggregate) int {
	n := 0
	for i := 0; i < q.W; i++ {
		s := q.Span(i)
		if s.Empty() {
			continue
		}
		for _, c := range snap.Chunks {
			if c.Meta.OverlapsRange(s) {
				n++
				if !out[i].Empty {
					n += 3
				}
				break
			}
		}
	}
	return n
}

// TestTaskTimingsCountEveryTask: the worker-local histogram batch and trace
// buffers must hand over one observation and one TaskTiming per task run,
// and both must be complete when the query returns.
func TestTaskTimingsCountEveryTask(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	horizon := testutil.DefaultGenConfig.TimeHorizon
	for iter := 0; iter < 60; iter++ {
		seeds := []int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
		q := m4.Query{Tqs: 0, Tqe: horizon, W: 1 + rng.Intn(12)}
		pyramid := iter%3 == 0
		snaps := batchAt(seeds, pyramid)
		reg := obs.NewRegistry()
		ctx, tr := obs.WithTrace(context.Background())
		outs, err := ComputeMultiContext(ctx, snaps, q, Options{Parallelism: 1 + iter%3, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		observed := reg.Histogram("m4_task_seconds", "op", "lsm").Count()
		traced := len(tr.Finish().Tasks)
		if int64(traced) != observed {
			t.Fatalf("iter %d: %d trace tasks, %d m4_task_seconds observations", iter, traced, observed)
		}
		if pyramid {
			continue
		}
		run := 0
		for i, snap := range snaps {
			run += tasksRun(snap, q, outs[i])
		}
		if traced != run {
			t.Fatalf("iter %d: %d trace tasks, %d tasks run", iter, traced, run)
		}
	}
}

// cancellingSource cancels the query on the first read it serves, so the
// cancellation lands mid-wave with tasks already counted.
type cancellingSource struct {
	storage.ChunkSource
	cancel context.CancelFunc
}

func (c *cancellingSource) ReadChunk(m storage.ChunkMeta) (series.Series, error) {
	c.cancel()
	return c.ChunkSource.ReadChunk(m)
}

func (c *cancellingSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	c.cancel()
	return c.ChunkSource.ReadTimes(m)
}

// checkFinal requires the counters to hold the work done before the pool
// stopped and to stay put after the call returned, and the task histogram
// and trace to agree.
func checkFinal(t *testing.T, name string, snap *storage.Snapshot, reg *obs.Registry, tr *obs.Trace) {
	t.Helper()
	after := snap.Stats.Load()
	if after.CandidateRounds == 0 {
		t.Fatalf("%s: no candidate rounds reached the snapshot's Stats: %+v", name, after)
	}
	time.Sleep(20 * time.Millisecond)
	if later := snap.Stats.Load(); later != after {
		t.Fatalf("%s: counters moved after return: %+v -> %+v", name, after, later)
	}
	if n, m := int64(len(tr.Finish().Tasks)), reg.Histogram("m4_task_seconds", "op", "lsm").Count(); n != m {
		t.Fatalf("%s: %d trace tasks, %d m4_task_seconds observations", name, n, m)
	}
}

// fpProbeSnapshot builds n disjoint chunks, one per span of the query
// [0, 20n) at w=n, whose first points later deletes remove: every FP task
// must probe its chunk's timestamps through src, so a failure or
// cancellation raised by src stops the first wave, and no earlier wave's
// counters can stand in for the stopped one's.
func fpProbeSnapshot(t *testing.T, n int, src func(*storage.MemSource) storage.ChunkSource) (*storage.Snapshot, m4.Query) {
	t.Helper()
	mem := storage.NewMemSource()
	read := src(mem)
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Warnings: &storage.Warnings{}}
	for i := 0; i < n; i++ {
		base := int64(20 * i)
		meta, err := mem.AddChunk("s", storage.Version(i+1), series.Series{{T: base, V: 1}, {T: base + 5, V: 2}, {T: base + 10, V: 3}})
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(meta, read, stats))
		snap.Deletes = append(snap.Deletes, storage.Delete{SeriesID: "s", Version: storage.Version(n + 1 + i), Start: base, End: base})
	}
	return snap, m4.Query{Tqs: 0, Tqe: int64(20 * n), W: n}
}

// TestStatsFinalAfterEarlyStop: a cancellation or a strict-mode load error
// stops the pool early; the workers' buffered counters must still be
// merged before the call returns.
func TestStatsFinalAfterEarlyStop(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		snap, q := fpProbeSnapshot(t, 16, func(mem *storage.MemSource) storage.ChunkSource {
			return &cancellingSource{ChunkSource: mem, cancel: cancel}
		})
		reg := obs.NewRegistry()
		ctx, tr := obs.WithTrace(ctx)
		if _, err := ComputeContext(ctx, snap, q, Options{Parallelism: par, Metrics: reg}); !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d: err = %v, want context.Canceled", par, err)
		}
		checkFinal(t, "cancel", snap, reg, tr)

		strict, q := fpProbeSnapshot(t, 16, func(mem *storage.MemSource) storage.ChunkSource {
			return &failingSource{inner: mem, bad: map[storage.Version]bool{3: true}, err: errors.New("disk gone")}
		})
		reg = obs.NewRegistry()
		ctx, tr = obs.WithTrace(context.Background())
		if _, err := ComputeContext(ctx, strict, q, Options{Parallelism: par, Strict: true, Metrics: reg}); err == nil {
			t.Fatalf("par %d: strict query over an unreadable chunk succeeded", par)
		}
		checkFinal(t, "strict", strict, reg, tr)
	}
}

// TestRecomputeMatchesComputeMeta pins the single-pass recompute to the
// two-pass definition: filter the span's points (known overwrites, later
// deletes), then storage.ComputeMeta. Values come from a tiny range so
// bottom/top ties are everywhere and the tie-breaking must agree exactly.
func TestRecomputeMatchesComputeMeta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(60)
		var data series.Series
		for ts := rng.Int63n(5); len(data) < n; ts += 1 + rng.Int63n(3) {
			data = append(data, series.Point{T: ts, V: float64(rng.Intn(3))})
		}
		horizon := data[len(data)-1].T + 5
		var dels []storage.Delete
		for i := rng.Intn(4); i > 0; i-- {
			s := rng.Int63n(horizon)
			dels = append(dels, storage.Delete{Version: storage.Version(rng.Intn(6)), Start: s, End: s + rng.Int63n(10)})
		}
		ver := storage.Version(rng.Intn(6))
		excluded := map[int64]bool{}
		for i := rng.Intn(3); i > 0; i-- {
			excluded[data[rng.Intn(len(data))].T] = true
		}
		span := series.TimeRange{Start: rng.Int63n(horizon), End: 0}
		span.End = span.Start + 1 + rng.Int63n(horizon)

		op := &operator{deleteIx: storage.NewDeleteIndex(dels)}
		sc := &spanComputer{op: op, span: span}
		v := &view{cs: &chunkState{data: data}, ver: ver, excluded: excluded}
		sc.recompute(v)

		var live series.Series
		for _, p := range data.Slice(span) {
			if !excluded[p.T] && !op.deleteIx.Covered(p.T, ver) {
				live = append(live, p)
			}
		}
		first, last, bottom, top, ok := storage.ComputeMeta(live)
		if v.dead != !ok {
			t.Fatalf("iter %d: dead = %v with %d surviving points", iter, v.dead, len(live))
		}
		if !ok {
			continue
		}
		if v.first.pt != first || v.last.pt != last || v.bottom.pt != bottom || v.top.pt != top {
			t.Fatalf("iter %d: recompute = %v %v %v %v, ComputeMeta = %v %v %v %v",
				iter, v.first.pt, v.last.pt, v.bottom.pt, v.top.pt, first, last, bottom, top)
		}
	}
}
