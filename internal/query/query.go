// Package query is the one read path behind every query surface. The DB
// facade, m4ql and the HTTP renderer each describe a read as a Request and
// hand it to Run, which resolves the snapshots, enforces strict reads,
// shares one budget across the batch and picks the physical operator. The
// surfaces keep only their own input parsing and output shaping, and this
// is the single place a per-layer ledger needs to instrument.
package query

import (
	"context"
	"fmt"
	"strings"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/groupby"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Request describes one read over one or more series. Which of Funcs and
// Represent is set picks the form: Funcs gives GROUP BY rows, Represent
// gives representation points, and neither gives M4 span aggregates.
type Request struct {
	// IDs are the series to read, in output order.
	IDs   []string
	Query m4.Query
	// Represent selects a representation operator (point output).
	Represent *reprops.Spec
	// Funcs selects the GROUP BY form: per-span scalar aggregates. It
	// ignores UDF: envelope sets run merge-free on M4-LSM and the rest
	// scan the merge reader.
	Funcs []groupby.Func
	// UDF selects the merge-everything baseline instead of M4-LSM.
	UDF bool
	// Strict fails the request on any unreadable, quarantined or
	// over-budget chunk instead of degrading with warnings.
	Strict bool
	// Parallelism bounds the operator's workers; 0 uses GOMAXPROCS.
	Parallelism int
	// Budget caps the whole request: every series charges the same one.
	Budget *govern.Budget
}

// Series is one series' share of a Result. Of Aggregates, Points and Rows
// only the one of the request's form is filled.
type Series struct {
	ID         string
	Aggregates []m4.Aggregate
	Points     series.Series
	Rows       []groupby.Row
	// Stats counts only this series' work.
	Stats storage.Stats
	// Warnings describes each chunk this series' read skipped or
	// quarantined; the series is partial when it is non-empty.
	Warnings []string
}

// Result is the output of Run: one Series per requested id, in request
// order, and Elapsed, the operator's time with snapshots excluded.
type Result struct {
	Series  []Series
	Elapsed time.Duration
}

// Match expands a series wildcard: every stored series whose id starts with
// prefix, in sorted order (an empty prefix matches all). No match is an
// empty list, not an error — dashboards issue `root.*` against empty
// databases all the time.
func Match(e *lsm.Engine, prefix string) []string {
	var ids []string
	for _, id := range e.SeriesIDs() {
		if strings.HasPrefix(id, prefix) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Snapshots takes one snapshot per series over r. Chunks already
// quarantined are excluded at snapshot time and reported as snapshot
// warnings, so a strict read fails on the first such warning rather than
// omit the chunk silently.
func Snapshots(e *lsm.Engine, ids []string, r series.TimeRange, strict bool) ([]*storage.Snapshot, error) {
	snaps := make([]*storage.Snapshot, len(ids))
	for i, id := range ids {
		snap, err := e.Snapshot(id, r)
		if err != nil {
			return nil, seriesErr(ids, i, err)
		}
		if strict {
			if ws := snap.Warnings.List(); len(ws) > 0 {
				return nil, seriesErr(ids, i, fmt.Errorf("query: strict read: %s", ws[0]))
			}
		}
		snaps[i] = snap
	}
	return snaps, nil
}

// seriesErr attributes a failure to its series in a multi-series request;
// a lone series' error passes through unchanged.
func seriesErr(ids []string, i int, err error) error {
	if len(ids) == 1 {
		return err
	}
	return fmt.Errorf("series %q: %w", ids[i], err)
}

// Run executes one request: it takes every snapshot (failing a strict
// request on the first snapshot warning), runs the batch through the
// operator the request's form and UDF flag select, and collects each
// series' stats and warnings. Cancellation returns ctx.Err(). When the
// operator fails, the Result is still returned next to the error so the
// caller can account for the cost already paid; it is nil only when the
// query is invalid or a snapshot failed.
func Run(ctx context.Context, e *lsm.Engine, req Request) (*Result, error) {
	if err := req.Query.Validate(); err != nil {
		return nil, err
	}
	snaps, err := Snapshots(e, req.IDs, req.Query.Range(), req.Strict)
	if err != nil {
		return nil, err
	}
	res := &Result{Series: make([]Series, len(snaps))}
	start := time.Now()
	err = execute(ctx, e, req, snaps, res.Series)
	res.Elapsed = time.Since(start)
	for i, snap := range snaps {
		s := &res.Series[i]
		s.ID = req.IDs[i]
		s.Stats = snap.Stats.Load()
		s.Warnings = snap.Warnings.List()
	}
	return res, err
}

// execute runs the operator over the snapshots, filling out positionally.
func execute(ctx context.Context, e *lsm.Engine, req Request, snaps []*storage.Snapshot, out []Series) error {
	met := e.Metrics()
	lopts := m4lsm.Options{Parallelism: req.Parallelism, Strict: req.Strict, Metrics: met, Budget: req.Budget}
	uopts := m4udf.Options{Parallelism: req.Parallelism, Strict: req.Strict, Metrics: met, Budget: req.Budget}
	q := req.Query
	switch {
	case len(req.Funcs) > 0:
		// GROUP BY has no batched operator: series run one after another
		// under the shared budget.
		for i, snap := range snaps {
			rows, err := groupby.ComputeContext(ctx, snap, q, req.Funcs, lopts)
			if err != nil {
				return seriesErr(req.IDs, i, err)
			}
			out[i].Rows = rows
		}
	case req.Represent != nil && req.UDF:
		for i, snap := range snaps {
			pts, err := m4udf.ReduceContext(ctx, snap, q, *req.Represent, uopts)
			if err != nil {
				return seriesErr(req.IDs, i, err)
			}
			out[i].Points = pts
		}
	case req.Represent != nil:
		pts, err := m4lsm.ReduceMultiContext(ctx, snaps, q, *req.Represent, lopts)
		if err != nil {
			return err
		}
		for i := range pts {
			out[i].Points = pts[i]
		}
	default:
		var aggs [][]m4.Aggregate
		var err error
		if req.UDF {
			aggs, err = m4udf.ComputeMultiContext(ctx, snaps, q, uopts)
		} else {
			aggs, err = m4lsm.ComputeMultiContext(ctx, snaps, q, lopts)
		}
		if err != nil {
			return err
		}
		for i := range aggs {
			out[i].Aggregates = aggs[i]
		}
	}
	return nil
}
