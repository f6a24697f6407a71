package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/server"
)

// params are one run's settings. Workload, seed, seconds and trace come
// from the command line; the rest are fixed by defaultParams, and the
// smoke test sets them directly to run the same code at tiny scale.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	series   int // series in the dataset
	points   int // points per series
	setups   int // set-ups per run; setup_s is their median
	dataRoot string
	traceOut string
}

func defaultParams() params {
	return params{
		series:   16,
		points:   65536,
		setups:   3,
		dataRoot: filepath.Join(".bench_build", "data"),
		traceOut: filepath.Join(".bench_build", "spans.jsonl"),
	}
}

// Workload shapes.
const (
	dashClients = 2
	// One ingest writer: a second one added no throughput (the shard's
	// append worker serializes every batch and flush) and only queued
	// behind the first, which doubled the median write latency and made
	// it swing with the machine's speed.
	ingestClients   = 1
	ingestBlock     = 64 // points per series per /write body on ingest
	liveBlock       = 50 // points per series per /write body on live
	liveInterval    = 50 * time.Millisecond
	liveWindowMs    = 20_000
	dashRequestList = 1 << 14
	// exactPrefix is how many requests of the seeded stream the traced
	// pass always completes; the exact counts average over exactly these.
	exactPrefix = 48
	// crossCycle: the first len(dashMix) reads of every crossCycle reads
	// of the stream are re-answered by m4udf on the same snapshots and
	// compared (see crossChecked).
	crossCycle = 80
	// traceTolerance bounds the share of a replayed request's time that
	// no layer span covers.
	traceTolerance = 0.05
)

// opStat is one completed request.
type opStat struct {
	ms   float64 // latency; +Inf when the request failed
	ok   bool
	idx  int64     // position in the seeded read stream; -1 for writes
	kind string    // request kind, for the per-kind breakdown
	end  time.Time // completion
}

// env is one run: the loaded engine behind an in-process server.Handler.
type env struct {
	p      params
	ds     *dataset
	dir    string
	opts   lsm.Options
	reg    *obs.Registry
	eng    *lsm.Engine
	h      *server.Handler
	setupS []float64

	// Appended blocks: block b holds points [ds.end+b*blockPts, +blockPts)
	// of every series. acked[b] is true once acknowledged, false if its
	// request failed.
	blockPts  int64
	nextBlock atomic.Int64
	ackMu     sync.Mutex
	acked     map[int64]bool

	// head is the end of the acknowledged live tail (exclusive), read by
	// the live reader to place its window.
	head atomic.Int64

	// nextRead indexes the seeded read stream; the traced pass resets it
	// so every traced run replays the same prefix.
	nextRead atomic.Int64

	attempted atomic.Int64
	failures  atomic.Int64
	errMu     sync.Mutex
	firstErr  error
}

// fail counts a failed check and keeps the first error for the report.
func (v *env) fail(err error) {
	v.failures.Add(1)
	v.errMu.Lock()
	if v.firstErr == nil {
		v.firstErr = err
	}
	v.errMu.Unlock()
}

// serve sends one request through the handler in-process.
func (v *env) serve(method, target string, body io.Reader) (int, []byte) {
	req := httptest.NewRequest(method, target, body)
	rec := httptest.NewRecorder()
	v.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// setup builds the served database p.setups times, each into a fresh
// directory, and keeps the last one open. One set-up is the m4cli load
// path (engine default options, SyncWAL off, WriteBatch + Flush) followed
// by a close and a reopen with m4server's defaults: one shard, flush
// threshold 1000, Gorilla, pyramid on, no chunk cache; the writing
// workloads serve with SyncWAL on.
func setup(p params) (*env, error) {
	v := &env{p: p, acked: map[int64]bool{}}
	v.ds = genDataset(p.seed, p.series, p.points)
	base := filepath.Join(p.dataRoot, fmt.Sprintf("%s-%d-%d", p.workload, p.seed, os.Getpid()))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	for k := 0; k < p.setups; k++ {
		dir := filepath.Join(base, fmt.Sprintf("db%d", k))
		reg := obs.NewRegistry()
		opts := lsm.Options{Dir: dir, Metrics: reg, NumShards: 1, SyncWAL: p.workload != "dashboard"}
		start := time.Now()
		eng, err := loadAndReopen(v.ds, opts)
		v.setupS = append(v.setupS, time.Since(start).Seconds())
		if err != nil {
			os.RemoveAll(base)
			return nil, fmt.Errorf("setup: %w", err)
		}
		if k < p.setups-1 {
			err := eng.Close()
			if err == nil {
				err = os.RemoveAll(dir)
			}
			if err != nil {
				os.RemoveAll(base)
				return nil, fmt.Errorf("setup: %w", err)
			}
			continue
		}
		v.dir, v.opts, v.reg, v.eng = dir, opts, reg, eng
	}
	// The load plan is only needed again for the read-back check, which
	// regenerates it; dropping it keeps the benchmark's own memory out of
	// heap_peak_mb.
	v.ds.rounds, v.ds.deletes, v.ds.expected = nil, nil, nil
	v.h = server.NewWith(v.eng, server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		// m4server samples its registry into root.sys.* every second.
		// The benchmark ticks the sampler itself on the same period, so
		// every run of a given length takes the same number of samples.
		SelfMetricsInterval: -1,
	})
	v.head.Store(v.ds.end)
	return v, nil
}

// loadAndReopen bulk-loads ds into opts.Dir and reopens it with opts.
func loadAndReopen(ds *dataset, opts lsm.Options) (*lsm.Engine, error) {
	eng, err := lsm.Open(lsm.Options{Dir: opts.Dir})
	if err != nil {
		return nil, err
	}
	if err := ds.load(eng); err != nil {
		eng.Close()
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	return lsm.Open(opts)
}

// close shuts the handler and engine down and removes the run's data.
func (v *env) close() {
	v.h.Close()
	v.eng.Close()
	os.RemoveAll(filepath.Dir(v.dir))
}

// background samples the live Go heap every 20 ms and ticks the
// self-metrics sampler once per whole second of the phase until stop is
// closed. The returned function waits for it, finishes the ticks the
// phase length calls for, and returns the peak live heap in MB. A GC at
// the start drops what set-up left behind from the baseline.
func (v *env) background(phase time.Duration, stop <-chan struct{}) (peakMB func() float64) {
	runtime.GC()
	var mu sync.Mutex
	peak := 0.0
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	readHeap := func() {
		metrics.Read(sample)
		mu.Lock()
		peak = math.Max(peak, float64(sample[0].Value.Uint64())/1e6)
		mu.Unlock()
	}
	ticks := int(phase / time.Second)
	done := make(chan struct{})
	start := time.Now()
	tick := 0
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				readHeap()
				if tick < ticks && now.Sub(start) >= time.Duration(tick+1)*time.Second {
					tick++
					v.h.Sampler().SampleOnce(now)
				}
			}
		}
	}()
	return func() float64 {
		<-done
		for ; tick < ticks; tick++ {
			v.h.Sampler().SampleOnce(time.Now())
		}
		readHeap()
		mu.Lock()
		defer mu.Unlock()
		return peak
	}
}

// dirBytes sums the sizes of the regular files under dir, in total and
// by file extension.
func dirBytes(dir string) (int64, map[string]int64, error) {
	var total int64
	byExt := map[string]int64{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			byExt[filepath.Ext(path)] += info.Size()
		}
		return nil
	})
	return total, byExt, err
}

// ackedPoints counts the appended points acknowledged so far.
func (v *env) ackedPoints() int64 {
	v.ackMu.Lock()
	defer v.ackMu.Unlock()
	n := int64(0)
	for _, ok := range v.acked {
		if ok {
			n++
		}
	}
	return n * v.blockPts * int64(v.p.series)
}

func (v *env) markBlock(b int64, ok bool) {
	v.ackMu.Lock()
	v.acked[b] = ok
	v.ackMu.Unlock()
}

// blockEntries builds block b as batch entries, for direct WriteBatch.
func (v *env) blockEntries(b int64) []lsm.BatchEntry {
	from := v.ds.end + b*v.blockPts
	entries := make([]lsm.BatchEntry, v.p.series)
	for i := range entries {
		pts := make(series.Series, v.blockPts)
		for k := range pts {
			t := from + int64(k)
			pts[k] = series.Point{T: t, V: appendValue(v.p.seed, i, t)}
		}
		entries[i] = lsm.BatchEntry{SeriesID: seriesID(i), Points: pts}
	}
	return entries
}

// blockBody renders block b as a /write body.
func (v *env) blockBody(b int64, buf *bytes.Buffer) {
	writeBody(buf, v.ds.ids, v.p.seed, v.ds.end+b*v.blockPts, v.blockPts)
}

// postBody sends a /write body and checks the answer.
func (v *env) postBody(buf *bytes.Buffer) error {
	code, body := v.serve("POST", "/write", bytes.NewReader(buf.Bytes()))
	return checkWrite(code, body, int(v.blockPts)*v.p.series)
}

// readBack simulates a crash (Engine.Kill: nothing flushed, the WAL left
// as is), reopens the directory, and checks that the store holds exactly
// the loaded dataset plus every acknowledged block. Points of failed
// blocks may or may not be present.
func (v *env) readBack() error {
	v.h.Close()
	v.eng.Kill()
	opts := v.opts
	opts.Metrics = nil
	eng, err := lsm.Open(opts)
	if err != nil {
		return fmt.Errorf("read-back: reopen: %w", err)
	}
	v.eng = eng // close() releases it
	ds := genDataset(v.p.seed, v.p.series, v.p.points)
	v.ackMu.Lock()
	defer v.ackMu.Unlock()
	for i, id := range ds.ids {
		snap, err := eng.Snapshot(id, series.TimeRange{Start: math.MinInt64, End: math.MaxInt64})
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		got, err := mergeread.Merge(snap, series.TimeRange{Start: math.MinInt64, End: math.MaxInt64})
		if err != nil {
			return fmt.Errorf("read-back: %s: %w", id, err)
		}
		want := ds.expected[i]
		if len(got) < len(want) {
			return fmt.Errorf("read-back: %s holds %d loaded points, want %d", id, len(got), len(want))
		}
		for k, p := range want {
			if got[k] != p {
				return fmt.Errorf("read-back: %s point %d is %v, want %v", id, k, got[k], p)
			}
		}
		present := map[int64]int64{} // appended points found, by block
		for _, p := range got[len(want):] {
			b := (p.T - ds.end) / v.blockPts
			if _, sent := v.acked[b]; p.T < ds.end || !sent || p.V != appendValue(v.p.seed, i, p.T) {
				return fmt.Errorf("read-back: %s holds unexpected point %v", id, p)
			}
			present[b]++
		}
		for b, ok := range v.acked {
			if ok && present[b] != v.blockPts {
				return fmt.Errorf("read-back: %s holds %d of %d points of acknowledged block %d", id, present[b], v.blockPts, b)
			}
		}
	}
	return nil
}

// runPhase runs a workload's clients for d (and until the traced pass has
// completed its exact prefix), returning every request's stats and, on
// live, how late the open-loop writer sent each body. tracer is nil for
// the untraced pass.
func (v *env) runPhase(d time.Duration, tr *tracer) (ops []opStat, lateness []float64, deadline time.Time) {
	start := time.Now()
	deadline = start.Add(d)
	var mu sync.Mutex
	collect := func(o []opStat, l []float64) {
		mu.Lock()
		ops, lateness = append(ops, o...), append(lateness, l...)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	switch v.p.workload {
	case "dashboard":
		reqs := dashRequests(v.p.seed, dashRequestList, v.p.series, v.ds.start, v.ds.end)
		for c := 0; c < dashClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []opStat
				for {
					i := v.nextRead.Add(1) - 1
					if time.Now().After(deadline) && (tr == nil || i >= exactPrefix) {
						break
					}
					mine = append(mine, v.read(reqs[i%int64(len(reqs))], i, tr))
				}
				collect(mine, nil)
			}()
		}
	case "ingest":
		for c := 0; c < ingestClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []opStat
				var buf bytes.Buffer
				for time.Now().Before(deadline) {
					b := v.nextBlock.Add(1) - 1
					entries := v.prepare(b, &buf, tr)
					mine = append(mine, v.write(b, time.Now(), &buf, entries, tr))
				}
				collect(mine, nil)
			}()
		}
	case "live":
		wg.Add(2)
		go func() { // open-loop writer
			defer wg.Done()
			var mine []opStat
			var late []float64
			var buf bytes.Buffer
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * liveInterval)
				if !due.Before(deadline) {
					break
				}
				b := v.nextBlock.Add(1) - 1
				entries := v.prepare(b, &buf, tr)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late = append(late, float64(time.Since(due))/1e6)
				st := v.write(b, due, &buf, entries, tr)
				if st.ok {
					// One writer appends in block order, so the
					// acknowledged tail ends at this block.
					v.head.Store(v.ds.end + (b+1)*v.blockPts)
				}
				mine = append(mine, st)
			}
			collect(mine, late)
		}()
		go func() { // closed-loop reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(v.p.seed ^ 0x11fe))
			var mine []opStat
			for {
				i := v.nextRead.Add(1) - 1
				if time.Now().After(deadline) && (tr == nil || i >= exactPrefix) {
					break
				}
				head := v.head.Load()
				r := readReq{render: i%2 == 0, series: rng.Intn(v.p.series), tqs: head - liveWindowMs, tqe: head}
				mine = append(mine, v.read(r, i, tr))
			}
			collect(mine, nil)
		}()
	}
	wg.Wait()
	return ops, lateness, deadline
}

// read sends one read request, checks the answer, and in the traced pass
// replays it through the layers.
func (v *env) read(r readReq, idx int64, tr *tracer) opStat {
	t0 := time.Now()
	code, body := v.serve("GET", r.target(), nil)
	ms := float64(time.Since(t0)) / 1e6
	var err error
	var res interface{}
	if r.render {
		err = checkRender(code, body)
		res = body
	} else {
		res, err = checkQuery(r, v.p.series, code, body)
	}
	if err == nil && tr != nil {
		err = v.replayRead(tr, r, idx, ms, res)
	}
	st := opStat{ms: ms, ok: err == nil, idx: idx, kind: r.kind(), end: time.Now()}
	if err != nil {
		v.fail(err)
		st.ms = math.Inf(1)
	}
	return st
}

// prepare builds block b ahead of its send: the /write body, or in the
// traced pass for odd blocks the entries that bypass HTTP and go straight
// to Engine.WriteBatch, so the server's share of a write can be told from
// the engine's.
func (v *env) prepare(b int64, buf *bytes.Buffer, tr *tracer) []lsm.BatchEntry {
	if tr != nil && b%2 == 1 {
		return v.blockEntries(b)
	}
	v.blockBody(b, buf)
	return nil
}

// write appends block b, timing from `from`: the send time in a closed
// loop, the due time in the open loop.
func (v *env) write(b int64, from time.Time, buf *bytes.Buffer, entries []lsm.BatchEntry, tr *tracer) opStat {
	var err error
	if tr != nil {
		err = v.replayWrite(tr, b, buf, entries)
	} else {
		err = v.postBody(buf)
	}
	st := opStat{ms: float64(time.Since(from)) / 1e6, ok: err == nil, idx: -1, kind: "write", end: time.Now()}
	v.markBlock(b, err == nil)
	if err != nil {
		v.fail(err)
		st.ms = math.Inf(1)
	}
	return st
}

// crossChecked reports whether the read at position idx of the stream is
// cross-checked against m4udf: one whole cycle of the dashboard mix in
// every crossCycle reads, so every dashboard kind and, on live, both the
// renders and the queries are checked, the first cycle inside the exact
// prefix every traced run replays.
func crossChecked(idx int64) bool { return idx%crossCycle < int64(len(dashMix)) }

// kinds lists the request kinds in ops, sorted.
func kinds(ops []opStat) []string {
	seen := map[string]bool{}
	var out []string
	for _, o := range ops {
		if !seen[o.kind] {
			seen[o.kind] = true
			out = append(out, o.kind)
		}
	}
	sort.Strings(out)
	return out
}

func byKind(ops []opStat, kind string) []opStat {
	var out []opStat
	for _, o := range ops {
		if o.kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// latencies turns op stats into a latency distribution in ms.
func latencies(ops []opStat) dist {
	d := make(dist, len(ops))
	for i, o := range ops {
		d[i] = o.ms
	}
	return d
}

// completedBy counts the successful operations that ended by t.
func completedBy(ops []opStat, t time.Time) int {
	n := 0
	for _, o := range ops {
		if o.ok && !o.end.After(t) {
			n++
		}
	}
	return n
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics and the human-readable lines printed before the
// result.
type report struct {
	lines   []string
	metrics map[string]metricValue
}

func (rp *report) set(defs []metricDef, name string, value float64, note string) {
	for _, d := range defs {
		if d.Name == name {
			if math.IsInf(value, 1) {
				value = math.MaxFloat64 // JSON has no +Inf; a failed run reports correct=false anyway
			}
			rp.metrics[name] = metricValue{Value: value, Unit: d.Unit}
			rp.lines = append(rp.lines, fmt.Sprintf("  %-30s %14.6g %-6s %s", name, value, d.Unit, note))
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (rp *report) note(format string, args ...interface{}) {
	rp.lines = append(rp.lines, fmt.Sprintf(format, args...))
}

// run executes one benchmark run.
func run(p params) (*result, []string, error) {
	switch p.workload {
	case "dashboard", "ingest", "live":
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (dashboard, ingest, live)", p.workload)
	}
	v, err := setup(p)
	if err != nil {
		return nil, nil, err
	}
	defer v.close()
	switch p.workload {
	case "ingest":
		v.blockPts = ingestBlock
	case "live":
		v.blockPts = liveBlock
	}
	v.warm()

	rp := &report{metrics: map[string]metricValue{}}
	rp.note("perfbench workload=%s seed=%d seconds=%g trace=%v series=%d points/series=%d", p.workload, p.seed, p.seconds, p.trace, p.series, p.points)
	phase := time.Duration(p.seconds * float64(time.Second))
	if p.trace {
		if err := v.traced(phase, rp); err != nil {
			return nil, nil, err
		}
	} else if err := v.untraced(phase, rp); err != nil {
		return nil, nil, err
	}

	if p.workload != "dashboard" {
		if err := v.readBack(); err != nil {
			v.fail(err)
		} else {
			rp.note("  read-back after kill + reopen: dataset and %d acknowledged points all present", v.ackedPoints())
		}
	}
	res := &result{
		Correct:   v.failures.Load() == 0,
		Attempted: v.attempted.Load(),
		Failed:    v.failures.Load(),
		Metrics:   rp.metrics,
	}
	if v.firstErr != nil {
		rp.note("  FAILED: %d check(s); first: %v", v.failures.Load(), v.firstErr)
	}
	return res, rp.lines, nil
}

// warm issues one request of every read kind (and, on the writing
// workloads, one write) before timing starts, then takes the first
// self-metrics sample so its series exist before the measured phase.
func (v *env) warm() {
	if v.p.workload == "ingest" {
		var buf bytes.Buffer
		b := v.nextBlock.Add(1) - 1
		v.blockBody(b, &buf)
		v.markBlock(b, v.postBody(&buf) == nil)
	} else {
		for _, r := range warmRequests(v.ds.start, v.ds.end) {
			code, body := v.serve("GET", r.target(), nil)
			err := checkRender(code, body)
			if !r.render {
				_, err = checkQuery(r, v.p.series, code, body)
			}
			if err != nil {
				v.fail(fmt.Errorf("warm-up: %w", err))
			}
		}
	}
	v.h.Sampler().SampleOnce(time.Now())
}

// untraced runs the end-to-end pass and reports the end-to-end metrics.
func (v *env) untraced(phase time.Duration, rp *report) error {
	stop := make(chan struct{})
	peakMB := v.background(phase, stop)
	ops, lateness, deadline := v.runPhase(phase, nil)
	close(stop)
	heap := peakMB()
	v.attempted.Add(int64(len(ops)))

	_, setupMed, _ := pyQuartiles(v.setupS)
	rp.note("end-to-end (%s; foreground = %s):", v.p.workload, foreground(v.p.workload))
	rp.set(endToEnd, "setup_s", setupMed, fmt.Sprintf("n=%d set-ups %.3f s", len(v.setupS), v.setupS))
	lat := latencies(ops)
	done := completedBy(ops, deadline)
	rp.set(endToEnd, "ops_per_s", float64(done)/phase.Seconds(), fmt.Sprintf("n=%d requests completed within the %g s phase (%d in all)", done, phase.Seconds(), len(ops)))
	rp.set(endToEnd, "p50_ms", lat.p50(), fmt.Sprintf("n=%d", len(lat)))
	rp.set(endToEnd, "tail_ms", lat.tail(), fmt.Sprintf("p%.4g of n=%d", 100*tailQuantile(len(lat)), len(lat)))

	rp.note("  by kind:")
	for _, k := range kinds(ops) {
		d := latencies(byKind(ops, k)).sorted()
		rp.note("    %-26s n=%-5d p10/25/50/75/90 %8.3f %8.3f %8.3f %8.3f %8.3f ms  p%.4g %8.3f ms", k, len(d),
			quantile(d, 0.1), quantile(d, 0.25), quantile(d, 0.5), quantile(d, 0.75), quantile(d, 0.9), 100*tailQuantile(len(d)), d.tail())
	}
	size, byExt, err := dirBytes(v.dir)
	if err != nil {
		return err
	}
	pts := int64(v.ds.points) + v.ackedPoints()
	rp.set(endToEnd, "bytes_per_point", float64(size)/float64(pts), fmt.Sprintf("%d B / %d points; by file type %v", size, pts, byExt))
	rp.set(endToEnd, "heap_peak_mb", heap, "")
	if v.p.workload == "live" {
		late := dist(lateness)
		rp.note("  open-loop writer sent its n=%d bodies late by p50 %.3f ms, p%.4g %.3f ms (write latency counts from the due time)",
			len(late), late.p50(), 100*tailQuantile(len(late)), late.tail())
	}
	return nil
}

// foreground names the requests the end-to-end metrics describe: every
// request the workload sends.
func foreground(workload string) string {
	switch workload {
	case "ingest":
		return "/write"
	case "live":
		return "/render + /query + open-loop /write"
	}
	return "/render + /query"
}
