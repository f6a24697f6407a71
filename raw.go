package m4lsm

import (
	"bytes"
	"context"
	"fmt"

	"m4lsm/internal/mergeread"
	"m4lsm/internal/query"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

// Raw returns the merged ("latest") points of a series in the half-open
// time range [tqs, tqe), in time order: overwrites resolved by version,
// deletes applied. This is the full-resolution read path that M4 queries
// avoid scanning. Like every tuple-form call it reads strictly: a
// quarantined or unreadable chunk is an error, never silently missing data.
func (db *DB) Raw(seriesID string, tqs, tqe int64) ([]Point, error) {
	if tqe <= tqs {
		return nil, fmt.Errorf("m4lsm: empty range [%d, %d)", tqs, tqe)
	}
	r := series.TimeRange{Start: tqs, End: tqe}
	snaps, err := query.Snapshots(db.engine, []string{seriesID}, r, true)
	if err != nil {
		return nil, err
	}
	merged, err := mergeread.Merge(snaps[0], r)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(merged))
	for i, p := range merged {
		out[i] = Point{Time: p.T, Value: p.V}
	}
	return out, nil
}

// Render draws the series over [tqs, tqe) as a two-color PNG line chart of
// w×h pixels and returns the encoded image. The chart is computed with the
// M4-LSM operator at w spans, so it is pixel-identical to rendering the
// full series (the paper's error-free guarantee) at a fraction of the
// read cost. Like every tuple-form call it reads strictly.
func (db *DB) Render(seriesID string, tqs, tqe int64, w, h int) ([]byte, error) {
	if h <= 0 {
		return nil, fmt.Errorf("m4lsm: height must be positive, got %d", h)
	}
	res, err := db.run(context.Background(), []string{seriesID}, tqs, tqe, w, &reprops.Spec{Kind: reprops.KindM4}, M4Options{StrictReads: true})
	if err != nil {
		return nil, err
	}
	reduced := res.Series[0].Points
	vp := viz.ViewportFor(reduced, tqs, tqe)
	canvas := viz.Rasterize(reduced, vp, w, h)
	var buf bytes.Buffer
	if err := canvas.WritePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
