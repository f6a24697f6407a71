package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"m4lsm/internal/encoding"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span within the request, -1 for
// the request's root. Times are nanoseconds since the traced phase began.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// readRecord holds the counts one replayed read produced.
type readRecord struct {
	idx        int64
	kind       string
	httpMs     float64 // the same request through the handler
	rootMs     float64 // the replay
	computeMs  float64
	phases     map[string]float64
	stats      storage.Stats
	snapshots  int
	snapChunks int
	outPoints  int
	evalSpans  int // spans the operator evaluated, over all series
	memtable   int
}

// countChunks adds a snapshot's chunks, and the points of its memtable
// chunk (the one the engine serves from memory, plain-encoded, at no file
// offset), to the record.
func (rec *readRecord) countChunks(snap *storage.Snapshot) {
	rec.snapChunks += len(snap.Chunks)
	for _, c := range snap.Chunks {
		if c.Meta.Codec == encoding.CodecPlain && c.Meta.HeaderLen == 0 && c.Meta.Offset == 0 {
			rec.memtable += int(c.Meta.Count)
		}
	}
}

// tracer keeps every span and read record in memory until the phase ends.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	reads   []readRecord
	httpMs  dist // handler latency per traced request; < 0 when it bypassed the handler
	replays int

	// m4udf cross-checks run per request kind, and per dataset preset the
	// series whose answers differed only by the choice among tied values.
	crossChecks map[string]int
	crossTies   map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), crossChecks: map[string]int{}, crossTies: map[string]int{}}
}

// reqTrace records one request's spans on one goroutine.
type reqTrace struct {
	tr    *tracer
	req   string
	spans []span
}

func (tr *tracer) begin(req string) *reqTrace { return &reqTrace{tr: tr, req: req} }

func (rt *reqTrace) open(name string, parent int) int {
	rt.spans = append(rt.spans, span{Req: rt.req, ID: len(rt.spans), Parent: parent, Name: name,
		Start: int64(time.Since(rt.tr.t0))})
	return len(rt.spans) - 1
}

func (rt *reqTrace) close(id int) { rt.spans[id].End = int64(time.Since(rt.tr.t0)) }

// phases adds the operator's own trace phases as children of parent,
// placed back to back so that the last one ends with the parent: the
// operator reports durations, not start times.
func (rt *reqTrace) phases(parent int, ph []obs.PhaseTiming) map[string]float64 {
	out := map[string]float64{}
	end := rt.spans[parent].End
	for i := len(ph) - 1; i >= 0; i-- {
		rt.spans = append(rt.spans, span{Req: rt.req, ID: len(rt.spans), Parent: parent, Name: "m4lsm." + ph[i].Name,
			Start: end - ph[i].Ns, End: end})
		end -= ph[i].Ns
		out[ph[i].Name] += float64(ph[i].Ns) / 1e6
	}
	return out
}

func (rt *reqTrace) finish(rec *readRecord, httpMs float64) {
	tr := rt.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, rt.spans...)
	tr.httpMs = append(tr.httpMs, httpMs)
	tr.replays++
	if rec != nil {
		rec.rootMs = rt.spans[0].ms()
		tr.reads = append(tr.reads, *rec)
	}
}

// replayRead replays a read request through the layers' public functions
// in the order the handler calls them, one span per call, after the same
// request went through HTTP. answer is what the handler returned (PNG
// bytes or the decoded m4ql.Result). On dashboard the data cannot change
// in between, so the replay must reproduce the answer exactly.
func (v *env) replayRead(tr *tracer, r readReq, idx int64, httpMs float64, answer interface{}) error {
	rec := readRecord{idx: idx, kind: r.kind(), httpMs: httpMs}
	ids := r.ids(v.p.series)
	q := r.query()
	rt := tr.begin(fmt.Sprintf("%s-%d", kindName(r), idx))
	root := rt.open("request", -1)
	if r.render {
		snaps := make([]*storage.Snapshot, len(ids))
		for i, id := range ids {
			s := rt.open("lsm.snapshot", root)
			snap, err := v.eng.Snapshot(id, q.Range())
			rt.close(s)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			snaps[i] = snap
		}
		c := rt.open("m4lsm.compute", root)
		ctx, otr := obs.WithTrace(context.Background())
		reduced, err := m4lsm.ReduceMultiContext(ctx, snaps, q, r.spec, m4lsm.Options{Metrics: v.reg})
		rt.close(c)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		ra := rt.open("viz.rasterize", root)
		vp := viz.ViewportForAll(reduced, q.Tqs, q.Tqe)
		canvas := viz.NewCanvas(spans, height)
		for _, s := range reduced {
			viz.RasterizeOnto(canvas, s, vp)
		}
		rt.close(ra)
		pn := rt.open("viz.png", root)
		var buf bytes.Buffer
		err = canvas.WritePNG(&buf)
		rt.close(pn)
		rt.close(root)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rec.phases = rt.phases(c, otr.Finish().Phases)
		rec.computeMs = rt.spans[c].ms()
		for i, snap := range snaps {
			rec.stats.Add(snap.Stats.Load())
			rec.countChunks(snap)
			rec.outPoints += len(reduced[i])
		}
		if v.p.workload == "dashboard" && !bytes.Equal(buf.Bytes(), answer.([]byte)) {
			return fmt.Errorf("replay: %s: PNG differs from the /render answer", r.target())
		}
	} else {
		p := rt.open("m4ql.parse", root)
		stmt, err := m4ql.Parse(r.statement())
		rt.close(p)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		ex := rt.open("m4ql.exec", root)
		ctx, _ := obs.WithTrace(context.Background())
		res, err := m4ql.ExecuteContext(ctx, v.eng, stmt)
		rt.close(ex)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		// The handler answers without the trace unless asked for one.
		var phases []obs.PhaseTiming
		if res.Trace != nil {
			phases, res.Trace = res.Trace.Phases, nil
		}
		j := rt.open("server.json_encode", root)
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(res)
		rt.close(j)
		rt.close(root)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		rec.phases = rt.phases(ex, phases)
		for _, ms := range rec.phases {
			rec.computeMs += ms
		}
		rec.stats = res.Stats
		perRow := 1
		if r.spec.Kind == reprops.KindM4 {
			perRow = 4
		}
		rec.outPoints = perRow * len(res.Rows)
		for _, s := range res.Series {
			rec.outPoints += perRow * len(s.Rows)
		}
		// The handler's snapshots are internal to ExecuteContext; count
		// chunks on fresh ones, outside the request's spans.
		for _, id := range ids {
			snap, err := v.eng.Snapshot(id, q.Range())
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			rec.countChunks(snap)
		}
		if v.p.workload == "dashboard" {
			if err := sameRows(answer.(*m4ql.Result), res); err != nil {
				return fmt.Errorf("replay: %s: %w", r.statement(), err)
			}
		}
	}
	rec.snapshots = len(ids)
	rec.evalSpans = r.outputSpans() * len(ids)
	rt.finish(&rec, httpMs)
	if crossChecked(idx) {
		tied, err := crossCheck(v.eng, ids, q, r.spec)
		if err != nil {
			return err
		}
		tr.mu.Lock()
		tr.crossChecks[r.kind()]++
		for _, k := range tied {
			if r.series >= 0 {
				k = r.series
			}
			tr.crossTies[presetName(k)]++
		}
		tr.mu.Unlock()
	}
	return nil
}

func kindName(r readReq) string {
	if r.render {
		return "render"
	}
	return "query"
}

// sameRows compares a handler answer with the replay's result.
func sameRows(a, b *m4ql.Result) error {
	if !reflect.DeepEqual(a.Rows, b.Rows) || len(a.Series) != len(b.Series) {
		return fmt.Errorf("rows differ from the /query answer")
	}
	for i := range a.Series {
		if !reflect.DeepEqual(a.Series[i].Rows, b.Series[i].Rows) {
			return fmt.Errorf("series %s rows differ from the /query answer", a.Series[i].SeriesID)
		}
	}
	return nil
}

// crossCheck answers a read with m4lsm and with the m4udf baseline on the
// same snapshots: M4 aggregates must be equivalent, representation points
// bit-equal. m4udf reduces the merged series with the reprops oracle, which
// breaks value ties its own way; reprops promises bit-equality only on
// tie-free data. So where the points differ, m4lsm's answer is accepted
// only if it is itself a valid one: a MinMax answer whose every point is a
// real point holding its span's extreme value (see validMinMax), or for
// MinMaxLTTB, LTTB applied to such a MinMax preselection. On tie-free data
// that leaves exactly the oracle's answer. tied lists the positions in ids
// whose difference was accepted this way.
func crossCheck(eng *lsm.Engine, ids []string, q m4.Query, spec reprops.Spec) (tied []int, err error) {
	snaps := make([]*storage.Snapshot, len(ids))
	for i, id := range ids {
		snap, err := eng.Snapshot(id, q.Range())
		if err != nil {
			return nil, fmt.Errorf("cross-check: %w", err)
		}
		snaps[i] = snap
	}
	ctx := context.Background()
	if spec.Kind == reprops.KindM4 {
		a, err := m4lsm.ComputeMultiContext(ctx, snaps, q, m4lsm.Options{})
		if err != nil {
			return nil, fmt.Errorf("cross-check: m4lsm: %w", err)
		}
		b, err := m4udf.ComputeMultiContext(ctx, snaps, q, m4udf.Options{})
		if err != nil {
			return nil, fmt.Errorf("cross-check: m4udf: %w", err)
		}
		for i := range a {
			for k := range a[i] {
				if !m4.Equivalent(a[i][k], b[i][k]) {
					return nil, fmt.Errorf("cross-check: %s [%d,%d) span %d: m4lsm %v, m4udf %v", ids[i], q.Tqs, q.Tqe, k, a[i][k], b[i][k])
				}
			}
		}
		return nil, nil
	}
	a, err := m4lsm.ReduceMultiContext(ctx, snaps, q, spec, m4lsm.Options{})
	if err != nil {
		return nil, fmt.Errorf("cross-check: m4lsm: %w", err)
	}
	for i, snap := range snaps {
		b, err := m4udf.ReduceContext(ctx, snap, q, spec, m4udf.Options{})
		if err != nil {
			return nil, fmt.Errorf("cross-check: m4udf: %w", err)
		}
		if reflect.DeepEqual(a[i], b) {
			continue
		}
		merged, err := mergeread.Merge(snap, q.Range())
		if err != nil {
			return nil, fmt.Errorf("cross-check: %w", err)
		}
		switch spec.Kind {
		case reprops.KindMinMax:
			err = validMinMax(a[i], q, merged)
		case reprops.KindMinMaxLTTB:
			pq := reprops.PreQuery(q, spec.EffectiveRatio())
			var pre []series.Series
			pre, err = m4lsm.ReduceMultiContext(ctx, snaps[i:i+1], pq, reprops.Spec{Kind: reprops.KindMinMax}, m4lsm.Options{})
			if err == nil {
				err = validMinMax(pre[0], pq, merged)
			}
			if err == nil && !reflect.DeepEqual(a[i], reprops.LTTB(pre[0], q.W)) {
				err = fmt.Errorf("the points are not LTTB of m4lsm's own MinMax preselection")
			}
		default:
			err = fmt.Errorf("no tie rule for %s", spec)
		}
		if err != nil {
			return nil, fmt.Errorf("cross-check: %s %s [%d,%d): m4lsm %d points, m4udf %d, first difference at %d: %w",
				ids[i], spec, q.Tqs, q.Tqe, len(a[i]), len(b), firstDiff(a[i], b), err)
		}
		tied = append(tied, i)
	}
	return tied, nil
}

// validMinMax checks that out is a MinMax answer over merged, the merged
// points of the query range: per non-empty span, in time order, one point
// holding the span's lowest value and one holding its highest (a single
// point when one point holds both), each a point of merged inside the span,
// and nothing in empty spans. On tie-free data exactly one answer passes;
// where an extreme value recurs within a span, any point holding it may be
// chosen.
func validMinMax(out series.Series, q m4.Query, merged series.Series) error {
	aggs, err := m4.ComputeSeries(q, merged)
	if err != nil {
		return err
	}
	k := 0
	for i, a := range aggs {
		var got series.Series
		for k < len(out) && q.SpanIndex(out[k].T) == i {
			got = append(got, out[k])
			k++
		}
		if a.Empty {
			if len(got) > 0 {
				return fmt.Errorf("span %d is empty but holds %v", i, got)
			}
			continue
		}
		for _, p := range got {
			j := sort.Search(len(merged), func(j int) bool { return merged[j].T >= p.T })
			if j == len(merged) || merged[j] != p {
				return fmt.Errorf("span %d: %v is not a stored point", i, p)
			}
		}
		lo, hi := a.Bottom.V, a.Top.V
		switch {
		case len(got) == 1 && got[0].V == lo && got[0].V == hi:
		case len(got) == 2 && got[0].T < got[1].T &&
			(got[0].V == lo && got[1].V == hi || got[0].V == hi && got[1].V == lo):
		default:
			return fmt.Errorf("span %d: %v does not hold the extremes %v and %v", i, got, lo, hi)
		}
	}
	if k != len(out) {
		return fmt.Errorf("point %v is out of span order", out[k])
	}
	return nil
}

func firstDiff(a, b series.Series) int {
	for k := range a {
		if k >= len(b) || a[k] != b[k] {
			return k
		}
	}
	return len(a)
}

// replayWrite appends block b in the traced pass: even blocks through
// /write, odd blocks straight into Engine.WriteBatch.
func (v *env) replayWrite(tr *tracer, b int64, body *bytes.Buffer, entries []lsm.BatchEntry) error {
	rt := tr.begin(fmt.Sprintf("write-%d", b))
	root := rt.open("request", -1)
	var s int
	var err error
	if entries != nil {
		s = rt.open("lsm.writebatch", root)
		err = v.eng.WriteBatch(entries...)
	} else {
		s = rt.open("http.write", root)
		err = v.postBody(body)
	}
	rt.close(s)
	rt.close(root)
	httpMs := -1.0 // the block bypassed the handler
	if entries == nil {
		httpMs = rt.spans[s].ms()
	}
	rt.finish(nil, httpMs)
	return err
}

// counter reads one instrument from a Registry.Snapshot: counters and
// gauges by value, histograms by their sum.
func counter(snap map[string]interface{}, name string) float64 {
	switch x := snap[name].(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	case map[string]interface{}:
		if s, ok := x["sum"].(float64); ok {
			return s
		}
	}
	return 0
}

func heapAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// traced runs half the phase untraced (the overhead baseline) and half
// with every request replayed through the layers, and reports the
// per-layer metrics.
func (v *env) traced(phase time.Duration, rp *report) error {
	half := phase / 2
	stop := make(chan struct{})
	peakMB := v.background(half, stop)
	alloc0 := heapAllocBytes()
	ops0, _, _ := v.runPhase(half, nil)
	allocPerReq := (heapAllocBytes() - alloc0) / float64(max(len(ops0), 1))
	close(stop)
	peakMB()
	v.attempted.Add(int64(len(ops0)))

	v.nextRead.Store(0) // the traced pass replays the stream from its start
	ackedBefore := v.ackedPoints()
	before := v.reg.Snapshot()
	tr := newTracer()
	stop = make(chan struct{})
	peakMB = v.background(half, stop)
	ops1, lateness, _ := v.runPhase(half, tr)
	close(stop)
	peakMB()
	after := v.reg.Snapshot()
	v.attempted.Add(int64(tr.replays))
	written := v.ackedPoints() - ackedBefore

	// Self time per span: its duration minus its children's.
	self := map[string]dist{}
	durs := map[string]dist{}
	var rootTotal, unattributed float64
	byReq := map[string][]span{}
	for _, s := range tr.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, ss := range byReq {
		child := make([]float64, len(ss))
		for _, s := range ss {
			if s.Parent >= 0 {
				child[s.Parent] += s.ms()
			}
		}
		for i, s := range ss {
			if s.Parent < 0 {
				rootTotal += s.ms()
				unattributed += s.ms() - child[i]
				continue
			}
			self[s.Name] = append(self[s.Name], s.ms()-child[i])
			durs[s.Name] = append(durs[s.Name], s.ms())
		}
	}
	uncovered := 0.0
	if rootTotal > 0 {
		uncovered = unattributed / rootTotal
	}
	if uncovered > traceTolerance {
		v.fail(fmt.Errorf("trace: %.1f%% of the replayed time is outside every layer span (tolerance %.0f%%)", 100*uncovered, 100*traceTolerance))
	}

	sort.Slice(tr.reads, func(i, j int) bool { return tr.reads[i].idx < tr.reads[j].idx })
	var exact []readRecord // the seeded prefix every traced run replays
	for _, r := range tr.reads {
		if r.idx < exactPrefix {
			exact = append(exact, r)
		}
	}
	var sum storage.Stats
	var snapshots, snapChunks, outPoints, evalSpans, memtable float64
	for _, r := range exact {
		sum.Add(r.stats)
		snapshots += float64(r.snapshots)
		snapChunks += float64(r.snapChunks)
		outPoints += float64(r.outPoints)
		evalSpans += float64(r.evalSpans)
		memtable += float64(r.memtable)
	}
	n := float64(len(exact))
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var serverSelf, compute dist
	phaseMs := map[string]dist{}
	for _, r := range tr.reads {
		serverSelf = append(serverSelf, r.httpMs-r.rootMs)
		compute = append(compute, r.computeMs)
		for _, ph := range []string{"plan", "wave-fp", "wave-rest", "assemble"} {
			phaseMs[ph] = append(phaseMs[ph], r.phases[ph])
		}
	}
	med := func(d dist) float64 {
		if len(d) == 0 {
			return 0
		}
		return d.p50()
	}
	tail := func(d dist) float64 {
		if len(d) == 0 {
			return 0
		}
		return d.tail()
	}
	delta := func(name string) float64 { return counter(after, name) - counter(before, name) }

	rp.note("per-layer (%s, traced half: %d requests replayed, %d reads in the exact prefix):", v.p.workload, tr.replays, len(exact))
	L := func(name string, value float64, note string) { rp.set(perLayer, name, value, note) }
	L("server.self_ms", med(serverSelf), fmt.Sprintf("n=%d reads", len(serverSelf)))
	L("server.json_encode_ms", med(durs["server.json_encode"]), fmt.Sprintf("n=%d", len(durs["server.json_encode"])))
	writeSelf := 0.0
	if len(durs["http.write"]) > 0 && len(durs["lsm.writebatch"]) > 0 {
		writeSelf = med(durs["http.write"]) - med(durs["lsm.writebatch"])
	}
	L("server.write_self_ms", writeSelf, fmt.Sprintf("n=%d /write, %d WriteBatch", len(durs["http.write"]), len(durs["lsm.writebatch"])))
	L("m4ql.parse_us", 1000*med(durs["m4ql.parse"]), fmt.Sprintf("n=%d", len(durs["m4ql.parse"])))
	L("m4ql.exec_ms", med(durs["m4ql.exec"]), fmt.Sprintf("n=%d", len(durs["m4ql.exec"])))
	L("lsm.snapshot_p50_ms", med(durs["lsm.snapshot"]), fmt.Sprintf("n=%d", len(durs["lsm.snapshot"])))
	L("lsm.snapshot_tail_ms", tail(durs["lsm.snapshot"]), fmt.Sprintf("p%.4g", 100*tailQuantile(len(durs["lsm.snapshot"]))))
	L("lsm.snapshot_chunks", ratio(snapChunks, snapshots), "")
	L("lsm.memtable_points", per(memtable), "")
	L("lsm.writebatch_p50_ms", med(durs["lsm.writebatch"]), fmt.Sprintf("n=%d", len(durs["lsm.writebatch"])))
	L("lsm.writebatch_tail_ms", tail(durs["lsm.writebatch"]), fmt.Sprintf("p%.4g", 100*tailQuantile(len(durs["lsm.writebatch"]))))
	commits := delta("lsm_wal_group_commits_total")
	L("lsm.wal_records_per_commit", ratio(delta("lsm_wal_group_records_total"), commits), "")
	L("lsm.wal_commits", commits, "")
	L("lsm.flushes", delta("lsm_flushes_total"), "")
	L("lsm.flush_s", delta("lsm_flush_seconds"), "")
	L("lsm.backpressure", delta("lsm_ingest_backpressure_total"), "")
	saves := delta("lsm_pyramid_saves_total")
	var pyrBytes float64
	if fi, err := os.Stat(filepath.Join(v.dir, "pyramid.pyr")); err == nil {
		pyrBytes = float64(fi.Size())
	}
	L("pyramid.saves", saves, "")
	L("pyramid.file_bytes", pyrBytes, "")
	L("pyramid.save_bytes_per_point", ratio(saves*pyrBytes, float64(written)), fmt.Sprintf("%d points written", written))
	L("pyramid.span_hit_ratio", ratio(float64(sum.PyramidSpans), evalSpans), "")
	L("pyramid.cells", per(float64(sum.PyramidCells)), "")
	L("pyramid.fallback_spans", per(float64(sum.PyramidFallbackSpans)), "")
	L("m4lsm.compute_ms", med(compute), "")
	L("m4lsm.plan_ms", med(phaseMs["plan"]), "")
	L("m4lsm.wave_fp_ms", med(phaseMs["wave-fp"]), "")
	L("m4lsm.wave_rest_ms", med(phaseMs["wave-rest"]), "")
	L("m4lsm.assemble_ms", med(phaseMs["assemble"]), "")
	L("m4lsm.candidate_rounds", per(float64(sum.CandidateRounds)), "")
	L("m4lsm.pruned_ratio", ratio(float64(sum.ChunksPruned), snapChunks), "")
	L("stepreg.exist_probes", per(float64(sum.ExistProbes)), "")
	L("stepreg.boundary_probes", per(float64(sum.BoundaryProbes)), "")
	L("storage.chunks_loaded", per(float64(sum.ChunksLoaded+sum.TimeBlocksLoaded)), "")
	L("storage.bytes_read", per(float64(sum.BytesRead)), "")
	L("storage.points_decoded", per(float64(sum.PointsDecoded)), "")
	L("storage.decoded_per_output", ratio(float64(sum.PointsDecoded), outPoints), "")
	L("viz.rasterize_ms", med(durs["viz.rasterize"]), fmt.Sprintf("n=%d", len(durs["viz.rasterize"])))
	L("viz.png_ms", med(durs["viz.png"]), fmt.Sprintf("n=%d", len(durs["viz.png"])))
	L("go.alloc_mb_per_req", allocPerReq/1e6, fmt.Sprintf("n=%d untraced requests", len(ops0)))
	var w, late dist
	if v.p.workload == "live" {
		w, late = latencies(byKind(ops1, "write")), dist(lateness)
	}
	L("live.lateness_ms", tail(late), fmt.Sprintf("n=%d bodies", len(late)))
	L("live.write_p50_ms", med(w), "")
	L("live.write_tail_ms", tail(w), "")
	// Overhead: the same requests' handler latency with and without the
	// replays running beside them. Both halves start the read stream at
	// its first request, so reads pair up by stream position.
	var plain, traced dist
	if v.p.workload == "ingest" {
		plain = latencies(ops0)
		for _, ms := range tr.httpMs {
			if ms >= 0 {
				traced = append(traced, ms)
			}
		}
	} else {
		byIdx := map[int64]float64{}
		for _, o := range ops0 {
			if o.idx >= 0 {
				byIdx[o.idx] = o.ms
			}
		}
		for _, r := range tr.reads {
			if ms, ok := byIdx[r.idx]; ok {
				plain, traced = append(plain, ms), append(traced, r.httpMs)
			}
		}
	}
	L("trace.overhead_ratio", ratio(med(traced), med(plain)), fmt.Sprintf("n=%d pairs: traced p50 %.3f ms vs untraced %.3f ms", len(traced), med(traced), med(plain)))
	L("trace.unattributed_frac", uncovered, fmt.Sprintf("tolerance %.2f", traceTolerance))
	L("trace.requests", float64(tr.replays), "")

	// Every read kind the pass replayed must have been cross-checked.
	replayed := map[string]bool{}
	for _, r := range tr.reads {
		replayed[r.kind] = true
	}
	for k := range replayed {
		if tr.crossChecks[k] == 0 {
			v.fail(fmt.Errorf("cross-check: no %s read was cross-checked", k))
		}
	}
	rp.note("  m4lsm vs m4udf cross-checks by kind: %v; series answered differently among tied values, by preset: %v", tr.crossChecks, tr.crossTies)
	rp.note("self time by layer (median per call, share of all replayed time):")
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	total := 0.0
	for _, name := range names {
		for _, x := range self[name] {
			total += x
		}
	}
	for _, name := range names {
		s := 0.0
		for _, x := range self[name] {
			s += x
		}
		rp.note("  %-24s n=%-6d median %10.4f ms  share %5.1f%%", name, len(self[name]), med(self[name]), 100*ratio(s, total+unattributed))
	}
	rp.note("  %-24s %19.4f ms total  share %5.1f%%", "(unattributed)", unattributed, 100*ratio(unattributed, total+unattributed))
	return writeSpans(v.p.traceOut, tr.spans)
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
