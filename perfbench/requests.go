package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/reprops"
)

// Every read asks for 1000 spans; renders are 1000x400 pixels.
const (
	spans  = 1000
	height = 400
)

// readReq is one /render or /query request. series < 0 means the
// root.dash.* wildcard.
type readReq struct {
	render   bool
	series   int
	spec     reprops.Spec
	tqs, tqe int64
}

func (r readReq) query() m4.Query { return m4.Query{Tqs: r.tqs, Tqe: r.tqe, W: spans} }

func (r readReq) seriesParam() string {
	if r.series < 0 {
		return "root.dash.*"
	}
	return seriesID(r.series)
}

// ids lists the series the request reads, in the order the server
// answers them (sorted, for the wildcard).
func (r readReq) ids(n int) []string {
	if r.series >= 0 {
		return []string{seriesID(r.series)}
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = seriesID(i)
	}
	return ids
}

// statement is the m4ql text of a /query request.
func (r readReq) statement() string {
	s := fmt.Sprintf("SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(%d)",
		r.seriesParam(), r.tqs, r.tqe, spans)
	if r.spec.Kind != reprops.KindM4 {
		s += " REPRESENT " + r.spec.String()
	}
	return s
}

// target is the request URI.
func (r readReq) target() string {
	if !r.render {
		return "/query?q=" + url.QueryEscape(r.statement())
	}
	t := fmt.Sprintf("/render?series=%s&tqs=%d&tqe=%d&w=%d&h=%d",
		url.QueryEscape(r.seriesParam()), r.tqs, r.tqe, spans, height)
	if r.spec.Kind != reprops.KindM4 {
		t += "&repr=" + r.spec.String()
	}
	return t
}

// kind names the request's kind: endpoint, fan-out and operator.
func (r readReq) kind() string {
	fan := "single"
	if r.series < 0 {
		fan = "wildcard"
	}
	return kindName(r) + "/" + fan + "/" + r.spec.String()
}

// outputSpans is the span count the operator evaluates per series:
// MinMaxLTTB preselects over ratio x w spans.
func (r readReq) outputSpans() int {
	if r.spec.Kind == reprops.KindMinMaxLTTB {
		return reprops.PreQuery(r.query(), r.spec.EffectiveRatio()).W
	}
	return spans
}

// dashMix is the dashboard request mix, one entry per slot of a
// ten-request cycle: half renders, half queries; each half 60%
// single-series M4, 20% wildcard M4, 20% a representation operator.
var dashMix = []struct {
	render   bool
	wildcard bool
	spec     reprops.Spec
}{
	{true, false, reprops.Spec{Kind: reprops.KindM4}},
	{false, false, reprops.Spec{Kind: reprops.KindM4}},
	{true, true, reprops.Spec{Kind: reprops.KindM4}},
	{false, false, reprops.Spec{Kind: reprops.KindMinMax}},
	{true, false, reprops.Spec{Kind: reprops.KindM4}},
	{false, false, reprops.Spec{Kind: reprops.KindM4}},
	{true, false, reprops.Spec{Kind: reprops.KindMinMaxLTTB}},
	{false, true, reprops.Spec{Kind: reprops.KindM4}},
	{true, false, reprops.Spec{Kind: reprops.KindM4}},
	{false, false, reprops.Spec{Kind: reprops.KindM4}},
}

// Zoom factors run log-uniformly from 1 (the full time extent) to
// maxZoom (a hundredth of it). A continuous zoom keeps latency quantiles
// away from the cliffs a few discrete zoom levels would put between
// request classes.
const (
	maxZoom    = 100
	zoomStrata = 5
)

// dashRequests builds n dashboard requests. Kinds follow a fixed
// ten-request cycle and zooms a stratified draw (every kind gets each
// fifth of the log-zoom range once per 50 requests), so a run's mix does
// not depend on the seed. The seed draws the series, the zoom within its
// stratum and where each range starts, a uniformly random millisecond,
// so ranges are not aligned to anything.
func dashRequests(seed int64, n, nSeries int, start, end int64) []readReq {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_da5b))
	out := make([]readReq, n)
	for i := range out {
		slot := i % len(dashMix)
		mix := dashMix[slot]
		stratum := (i/len(dashMix) + slot) % zoomStrata
		zoom := math.Pow(maxZoom, (float64(stratum)+rng.Float64())/zoomStrata)
		width := int64(float64(end-start) / zoom)
		tqs := start + rng.Int63n(end-start-width+1)
		r := readReq{render: mix.render, series: rng.Intn(nSeries), spec: mix.spec, tqs: tqs, tqe: tqs + width}
		if mix.wildcard {
			r.series = -1
		}
		out[i] = r
	}
	return out
}

// warmRequests issues one request of every dashboard kind, so lazily
// registered metrics and first-use allocations happen before timing.
func warmRequests(start, end int64) []readReq {
	out := make([]readReq, len(dashMix))
	for i, mix := range dashMix {
		out[i] = readReq{render: mix.render, spec: mix.spec, tqs: start, tqe: end}
		if mix.wildcard {
			out[i].series = -1
		}
	}
	return out
}

// m4Columns is the column list of an M4(*) /query answer.
func m4Columns() []string {
	cols := []string{"span"}
	for _, c := range m4ql.AllColumns() {
		cols = append(cols, c.String())
	}
	return cols
}

// checkRender verifies a /render answer: a PNG of w x h pixels.
func checkRender(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("render: status %d: %.200s", code, body)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	if cfg.Width != spans || cfg.Height != height {
		return fmt.Errorf("render: got %dx%d, want %dx%d", cfg.Width, cfg.Height, spans, height)
	}
	return nil
}

// checkQuery verifies a /query answer's shape: w spans, the expected
// columns, one block per series for the wildcard, and rows that are
// well-formed and ordered. It returns the decoded result.
func checkQuery(r readReq, nSeries, code int, body []byte) (*m4ql.Result, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("query: status %d: %.200s", code, body)
	}
	var res m4ql.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("query: decode: %w", err)
	}
	if res.SpanCount != spans {
		return nil, fmt.Errorf("query: %d spans, want %d", res.SpanCount, spans)
	}
	want := m4Columns()
	if r.spec.Kind != reprops.KindM4 {
		want = []string{"time", "value"}
	}
	if strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		return nil, fmt.Errorf("query: columns %v, want %v", res.Columns, want)
	}
	if res.Partial {
		return nil, fmt.Errorf("query: partial result: %v", res.Warnings)
	}
	blocks := [][][]float64{res.Rows}
	if r.series < 0 {
		if len(res.Series) != nSeries {
			return nil, fmt.Errorf("query: %d series blocks, want %d", len(res.Series), nSeries)
		}
		blocks = blocks[:0]
		for i, s := range res.Series {
			if s.SeriesID != seriesID(i) {
				return nil, fmt.Errorf("query: block %d is %q, want %q", i, s.SeriesID, seriesID(i))
			}
			blocks = append(blocks, s.Rows)
		}
	}
	for _, rows := range blocks {
		if err := checkRows(r, len(want), rows); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// checkRows verifies one series' rows: M4 rows carry strictly increasing
// span indices below w; point rows carry non-decreasing times inside the
// query range.
func checkRows(r readReq, width int, rows [][]float64) error {
	prev := -1.0
	for _, row := range rows {
		if len(row) != width {
			return fmt.Errorf("query: row of %d cells, want %d", len(row), width)
		}
		key := row[0]
		if r.spec.Kind == reprops.KindM4 {
			if key <= prev || key >= spans || key != float64(int(key)) {
				return fmt.Errorf("query: span index %v after %v", key, prev)
			}
		} else if key < prev || key < float64(r.tqs) || key >= float64(r.tqe) {
			return fmt.Errorf("query: point time %v after %v outside [%d,%d)", key, prev, r.tqs, r.tqe)
		}
		prev = key
	}
	return nil
}

// writeBody renders points as the /write line protocol.
func writeBody(buf *bytes.Buffer, ids []string, seed int64, from, n int64) {
	buf.Reset()
	for i, id := range ids {
		for t := from; t < from+n; t++ {
			buf.WriteString(id)
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatInt(t, 10))
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatFloat(appendValue(seed, i, t), 'g', -1, 64))
			buf.WriteByte('\n')
		}
	}
}

// checkWrite verifies a /write answer acknowledges every point.
func checkWrite(code int, body []byte, points int) error {
	if code != http.StatusOK {
		return fmt.Errorf("write: status %d: %.200s", code, body)
	}
	var ack struct {
		Points int `json:"points"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("write: decode: %w", err)
	}
	if ack.Points != points {
		return fmt.Errorf("write: acknowledged %d points, sent %d", ack.Points, points)
	}
	return nil
}
