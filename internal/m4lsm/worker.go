package m4lsm

import (
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// pool runs a query's waves of (span, G) tasks. Its workers live for the
// whole query, so everything a task needs that does not depend on the task
// — counter slots, view storage, timing buffers — is allocated once per
// worker, not once per task, and reaches shared state once per wave.
type pool struct {
	par     int
	ops     []*operator // the batch's series operators, by operator.idx
	tr      *obs.Trace
	met     *obs.OperatorMetrics
	workers []*worker
}

func newPool(par int, ops []*operator, tr *obs.Trace, met *obs.OperatorMetrics) *pool {
	return &pool{par: max(par, 1), ops: ops, tr: tr, met: met}
}

// run executes tasks 0..n-1 on at most par workers and then merges every
// worker's counters and timings, so each plan's Stats, the task histogram
// and the trace are complete when run returns — also when a task error
// stopped the wave early.
func (p *pool) run(n int, task func(w *worker, t int) error) {
	for len(p.workers) < min(p.par, n) {
		p.workers = append(p.workers, p.newWorker())
	}
	runPool(p.workers, n, task)
	for _, w := range p.workers {
		w.flush(p.ops)
	}
}

// runPool executes tasks 0..n-1 across the given workers, one goroutine
// each, pulling task indexes off a shared atomic counter. A single worker
// runs inline on the calling goroutine with zero scheduling overhead. A
// task error stops the pool early; callers inspect per-task results for
// the error.
func runPool(workers []*worker, n int, run func(w *worker, t int) error) {
	if n == 0 {
		return
	}
	if len(workers) > n {
		workers = workers[:n]
	}
	if len(workers) == 1 {
		w := workers[0]
		w.start()
		for t := 0; t < n; t++ {
			if run(w, t) != nil {
				return
			}
		}
		return
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(len(workers))
	for _, w := range workers {
		go func(w *worker) {
			defer wg.Done()
			w.start()
			for {
				t := int(next.Add(1)) - 1
				if t >= n || failed.Load() {
					return
				}
				if run(w, t) != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// worker is one pool goroutine's private state. Nothing in it is shared
// while a wave runs; flush hands it over once the wave's goroutines have
// joined.
type worker struct {
	// stats holds this worker's operator counters per series plan
	// (indexed by operator.idx), merged into each plan's own Stats.
	stats []storage.Stats
	// views backs the current task's views; tasks run one at a time per
	// worker, so one array serves every task the worker runs.
	views []view
	sc    spanComputer

	// Task timing, armed when tracing or metrics are: mark is the last
	// task boundary as an offset from epoch, so one clock reading ends one
	// task and starts the next. time.Since reads only the monotonic clock,
	// half the cost of time.Now.
	timed bool
	epoch time.Time
	mark  time.Duration
	hist  *obs.HistogramBatch
	tr    *obs.Trace
	tasks []obs.TaskTiming
}

func (p *pool) newWorker() *worker {
	w := &worker{
		stats: make([]storage.Stats, len(p.ops)),
		timed: p.tr != nil || p.met != nil,
		hist:  p.met.TaskBatch(),
		tr:    p.tr,
	}
	if w.timed {
		w.epoch = time.Now()
	}
	return w
}

// start marks the worker's first task boundary of a wave.
func (w *worker) start() {
	if w.timed {
		w.mark = time.Since(w.epoch)
	}
}

// flush merges the worker's buffered counters into each plan's Stats, its
// task durations into the histogram and its task timings into the trace,
// and resets the buffers for the next wave.
func (w *worker) flush(ops []*operator) {
	for i := range w.stats {
		if w.stats[i] != (storage.Stats{}) {
			ops[i].stats.Add(w.stats[i])
			w.stats[i] = storage.Stats{}
		}
	}
	w.hist.Flush()
	w.tr.Tasks(w.tasks)
	w.tasks = w.tasks[:0]
}

// computeG evaluates one representation function over one span — the unit
// of work the pool schedules and the unit the task histogram and trace
// time. spanIdx labels the task in the trace.
func (w *worker) computeG(op *operator, spanIdx int, span series.TimeRange, chunks []*chunkState, g gKind) (series.Point, bool, error) {
	pt, ok, err := w.evalG(op, span, chunks, g)
	if w.timed {
		now := time.Since(w.epoch)
		d := now - w.mark
		w.mark = now
		w.hist.Observe(d.Seconds())
		if w.tr != nil {
			w.tasks = append(w.tasks, obs.TaskTiming{Span: spanIdx, G: g.String(), Ns: d.Nanoseconds()})
		}
	}
	return pt, ok, err
}

func (w *worker) evalG(op *operator, span series.TimeRange, chunks []*chunkState, g gKind) (series.Point, bool, error) {
	if err := op.ctx.Err(); err != nil {
		return series.Point{}, false, err
	}
	// Strict queries abort outright on a blown deadline; lenient ones keep
	// going — the candidate loop itself is metadata-cheap, and any further
	// chunk load is refused by ChargeChunk and degrades via chunkFailed.
	if op.opts.Strict {
		if err := op.budget.CheckDeadline(); err != nil {
			return series.Point{}, false, err
		}
	}
	if cap(w.views) < len(chunks) {
		w.views = make([]view, len(chunks))
	}
	sc := &w.sc
	*sc = spanComputer{op: op, span: span, views: w.views[:len(chunks)], local: &w.stats[op.idx]}
	for i, cs := range chunks {
		sc.initView(&sc.views[i], cs)
	}
	if op.opts.EagerLoad {
		for i := range sc.views {
			v := &sc.views[i]
			if err := sc.materialize(v); err != nil {
				if err := sc.chunkFailed(v, err); err != nil {
					return series.Point{}, false, err
				}
			}
		}
	}
	switch g {
	case gFP:
		return sc.computeTimeExtreme(true)
	case gLP:
		return sc.computeTimeExtreme(false)
	case gBP:
		return sc.computeValueExtreme(true)
	default:
		return sc.computeValueExtreme(false)
	}
}
