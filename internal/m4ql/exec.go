package m4ql

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/obs"
	"m4lsm/internal/query"
	"m4lsm/internal/reprops"
	"m4lsm/internal/storage"
)

// Result is the tabular output of an executed M4 query. Rows are one per
// non-empty span: the 0-based span index followed by the projected columns.
// Timestamps are reported as float64 (epoch milliseconds fit exactly).
type Result struct {
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`

	// Execution metadata.
	Operator  string        `json:"operator"`
	Elapsed   time.Duration `json:"elapsedNs"`
	Stats     storage.Stats `json:"stats"`
	SpanCount int           `json:"spanCount"`

	// Represent names the representation operator of a REPRESENT statement
	// ("m4", "minmax", "lttb", "minmaxlttb:4"); rows are then (time, value)
	// points instead of the eight-column span table. Empty for classic
	// span-table statements.
	Represent string `json:"represent,omitempty"`

	// Partial is true when unreadable chunks were dropped from the query
	// (non-STRICT execution); Warnings describes each degradation.
	Partial  bool     `json:"partial,omitempty"`
	Warnings []string `json:"warnings,omitempty"`

	// Series holds the per-series row blocks of a multi-series statement
	// (`FROM s1, s2` or `FROM root.*`), in sorted-id order for wildcards
	// and FROM order otherwise. Single-series statements leave it nil and
	// keep the historical flat shape; for multi-series statements the
	// top-level Rows stay nil, Stats sums every series' counters, and
	// Partial/Warnings aggregate with series attribution.
	Series []SeriesResult `json:"series,omitempty"`

	// Trace is the structured execution trace, present when the statement
	// had a TRACE clause or the context carried an armed trace.
	Trace *obs.Snapshot `json:"trace,omitempty"`
}

// SeriesResult is one series' block of a multi-series result: its rows in
// the same span/column layout as the single-series form, with the series'
// own cost counters and degradation status.
type SeriesResult struct {
	SeriesID string        `json:"seriesId"`
	Rows     [][]float64   `json:"rows"`
	Stats    storage.Stats `json:"stats"`
	Partial  bool          `json:"partial,omitempty"`
	Warnings []string      `json:"warnings,omitempty"`
}

// Text renders the result as an aligned table for CLI output; multi-series
// results render one block per series.
func (r *Result) Text() string {
	var sb strings.Builder
	if len(r.Series) > 0 {
		for i := range r.Series {
			s := &r.Series[i]
			fmt.Fprintf(&sb, "-- series %s --\n", s.SeriesID)
			writeTable(&sb, r.Columns, s.Rows)
			fmt.Fprintf(&sb, "-- %d of %d spans non-empty, %v\n", len(s.Rows), r.SpanCount, &s.Stats)
			if s.Partial {
				fmt.Fprintf(&sb, "-- PARTIAL RESULT: %d unreadable chunk(s) skipped\n", len(s.Warnings))
				for _, w := range s.Warnings {
					fmt.Fprintf(&sb, "--   warning: %s\n", w)
				}
			}
		}
		fmt.Fprintf(&sb, "-- %d series, %s, %v, %v\n",
			len(r.Series), r.Operator, r.Elapsed.Round(time.Microsecond), &r.Stats)
		return sb.String()
	}
	writeTable(&sb, r.Columns, r.Rows)
	fmt.Fprintf(&sb, "-- %d of %d spans non-empty, %s, %v, %v\n",
		len(r.Rows), r.SpanCount, r.Operator, r.Elapsed.Round(time.Microsecond), &r.Stats)
	if r.Partial {
		fmt.Fprintf(&sb, "-- PARTIAL RESULT: %d unreadable chunk(s) skipped\n", len(r.Warnings))
		for _, w := range r.Warnings {
			fmt.Fprintf(&sb, "--   warning: %s\n", w)
		}
	}
	return sb.String()
}

// writeTable renders one aligned column/row block.
func writeTable(sb *strings.Builder, columns []string, rows [][]float64) {
	widths := make([]int, len(columns))
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, columns)
	for _, row := range rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		cells = append(cells, line)
	}
	for _, line := range cells {
		for i, c := range line {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, line := range cells {
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
}

// queryBudget builds the statement's resource budget: the TIMEOUT clause
// overrides the server-wide defaults the context carries (installed via
// govern.WithLimits), and chunk/point caps come from those defaults alone.
// Returns nil — no budget at all — when neither source sets a limit. The
// budget is shared across every series of a multi-series statement: the
// limits govern the query, not each series.
func queryBudget(ctx context.Context, stmt Statement) *govern.Budget {
	return govern.NewBudget(govern.Limits{Timeout: stmt.Timeout}.Merge(govern.LimitsOf(ctx)))
}

// Execute runs a parsed statement against the engine.
func Execute(e *lsm.Engine, stmt Statement) (*Result, error) {
	return ExecuteContext(context.Background(), e, stmt)
}

// ExecuteContext runs a parsed statement under a context: cancellation
// aborts the operator's worker pool and returns ctx.Err(). Execution is one
// query.Run over the FROM series (wildcards expanded against the engine's
// sorted ids); this function only shapes the rows. Single-series statements
// keep the historical flat shape; multi-series statements (`FROM s1, s2` or
// a wildcard) get per-series blocks, with the top-level Stats summing every
// series' counters and Partial/Warnings aggregating with series
// attribution.
func ExecuteContext(ctx context.Context, e *lsm.Engine, stmt Statement) (*Result, error) {
	tr := obs.TraceOf(ctx)
	if tr == nil && stmt.Trace {
		ctx, tr = obs.WithTrace(ctx)
	}
	ids := stmt.Series
	if stmt.Wildcard {
		ids = query.Match(e, stmt.WildcardPrefix)
	}
	out, err := query.Run(ctx, e, query.Request{
		IDs:         ids,
		Query:       stmt.Query,
		Represent:   stmt.Represent,
		Funcs:       stmt.Aggregates,
		UDF:         stmt.Operator == OpUDF,
		Strict:      stmt.Strict,
		Parallelism: stmt.Parallelism,
		Budget:      queryBudget(ctx, stmt),
	})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Operator:  stmt.Operator.String(),
		Elapsed:   out.Elapsed,
		SpanCount: stmt.Query.W,
	}
	switch {
	case stmt.Represent != nil:
		res.Columns = []string{"time", "value"}
		res.Represent = stmt.Represent.String()
	case len(stmt.Aggregates) > 0:
		res.Columns = []string{"span"}
		for _, f := range stmt.Aggregates {
			res.Columns = append(res.Columns, f.String())
		}
	default:
		res.Columns = append([]string{"span"}, columnStrings(stmt.Columns)...)
	}
	blocks := make([]SeriesResult, len(out.Series))
	for i := range out.Series {
		s := &out.Series[i]
		blocks[i] = SeriesResult{
			SeriesID: s.ID,
			Rows:     rows(stmt, s),
			Stats:    s.Stats,
			Partial:  len(s.Warnings) > 0,
			Warnings: s.Warnings,
		}
	}
	if stmt.Multi() {
		res.Series = blocks
		for _, b := range blocks {
			res.Stats.Add(b.Stats)
			if b.Partial {
				res.Partial = true
				for _, w := range b.Warnings {
					res.Warnings = append(res.Warnings, fmt.Sprintf("series %s: %s", b.SeriesID, w))
				}
			}
		}
	} else {
		b := blocks[0]
		res.Rows, res.Stats, res.Partial, res.Warnings = b.Rows, b.Stats, b.Partial, b.Warnings
	}
	if tr != nil {
		if len(stmt.Aggregates) > 0 {
			tr.Phase("groupby", res.Elapsed)
			tr.SetCounters(res.Stats.Map())
		}
		tr.Warn(res.Warnings...)
		res.Trace = tr.Finish()
	}
	return res, nil
}

// rows shapes one series' output: (time, value) point rows for REPRESENT,
// and otherwise one row per non-empty span, the 0-based span index followed
// by the projected M4 columns or the GROUP BY aggregates.
func rows(stmt Statement, s *query.Series) [][]float64 {
	switch {
	case stmt.Represent != nil:
		out := make([][]float64, len(s.Points))
		for i, p := range s.Points {
			out[i] = []float64{float64(p.T), p.V}
		}
		return out
	case len(stmt.Aggregates) > 0:
		var out [][]float64
		for _, r := range s.Rows {
			row := make([]float64, 0, len(r.Values)+1)
			row = append(row, float64(r.Span))
			out = append(out, append(row, r.Values...))
		}
		return out
	}
	var out [][]float64
	for i, a := range s.Aggregates {
		if a.Empty {
			continue
		}
		row := make([]float64, 0, len(stmt.Columns)+1)
		row = append(row, float64(i))
		for _, c := range stmt.Columns {
			row = append(row, cell(a, c))
		}
		out = append(out, row)
	}
	return out
}

// Run parses and executes a query in one step. EXPLAIN statements execute
// the query and return the plan/cost summary as a single-column result.
func Run(e *lsm.Engine, query string) (*Result, error) {
	return RunContext(context.Background(), e, query)
}

// RunContext is Run under a context.
func RunContext(ctx context.Context, e *lsm.Engine, query string) (*Result, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		return nil, fmt.Errorf("m4ql: use Explain for EXPLAIN statements")
	}
	return ExecuteContext(ctx, e, stmt)
}

// Explain executes the statement and renders the physical plan with its
// measured cost, the shape a user inspects to see whether the merge-free
// operator pruned chunks.
func Explain(e *lsm.Engine, stmt Statement) (string, error) {
	return ExplainContext(context.Background(), e, stmt)
}

// ExplainContext is Explain under a context.
func ExplainContext(ctx context.Context, e *lsm.Engine, stmt Statement) (string, error) {
	res, err := ExecuteContext(ctx, e, stmt)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	op := "M4-LSM (chunk merge free: metadata candidates + lazy loads)"
	if stmt.Operator == OpUDF {
		op = "M4-UDF (load all chunks, k-way merge, scan)"
	}
	fmt.Fprintf(&sb, "M4 representation query\n")
	switch {
	case stmt.Wildcard:
		fmt.Fprintf(&sb, "  series:   %s* (%d matched)\n", stmt.WildcardPrefix, len(res.Series))
	case len(stmt.Series) > 1:
		fmt.Fprintf(&sb, "  series:   %s\n", strings.Join(stmt.Series, ", "))
	default:
		fmt.Fprintf(&sb, "  series:   %s\n", stmt.SeriesID)
	}
	fmt.Fprintf(&sb, "  range:    [%d, %d) in %d spans\n", stmt.Query.Tqs, stmt.Query.Tqe, stmt.Query.W)
	fmt.Fprintf(&sb, "  operator: %s\n", op)
	if stmt.Represent != nil {
		desc := "point output"
		switch stmt.Represent.Kind {
		case reprops.KindMinMax:
			desc = "2 points/span from metadata + pyramid cells"
		case reprops.KindLTTB:
			desc = "sequential triangle selection over the full merge (no pruning)"
		case reprops.KindMinMaxLTTB:
			desc = fmt.Sprintf("MinMax preselection at %d spans feeding LTTB", stmt.Query.W*stmt.Represent.EffectiveRatio())
		}
		fmt.Fprintf(&sb, "  represent: %s (%s)\n", stmt.Represent, desc)
	}
	if stmt.Parallelism > 0 {
		fmt.Fprintf(&sb, "  parallel: %d workers\n", stmt.Parallelism)
	} else {
		fmt.Fprintf(&sb, "  parallel: GOMAXPROCS\n")
	}
	if stmt.Timeout > 0 {
		fmt.Fprintf(&sb, "  timeout:  %v (soft budget)\n", stmt.Timeout)
	}
	fmt.Fprintf(&sb, "  columns:  %s\n", strings.Join(columnStrings(stmt.Columns), ", "))
	fmt.Fprintf(&sb, "executed in %v\n", res.Elapsed.Round(time.Microsecond))
	s := res.Stats
	fmt.Fprintf(&sb, "  chunks loaded:        %d (+%d timestamp-only)\n", s.ChunksLoaded, s.TimeBlocksLoaded)
	fmt.Fprintf(&sb, "  chunks pruned:        %d (answered from metadata)\n", s.ChunksPruned)
	fmt.Fprintf(&sb, "  bytes read:           %d\n", s.BytesRead)
	fmt.Fprintf(&sb, "  points decoded:       %d\n", s.PointsDecoded)
	fmt.Fprintf(&sb, "  candidate rounds:     %d\n", s.CandidateRounds)
	fmt.Fprintf(&sb, "  index probes:         %d (%d existence, %d boundary)\n",
		s.IndexProbes, s.ExistProbes, s.BoundaryProbes)
	nonEmpty := len(res.Rows)
	for i := range res.Series {
		nonEmpty += len(res.Series[i].Rows)
	}
	fmt.Fprintf(&sb, "  non-empty spans:      %d of %d\n", nonEmpty, res.SpanCount)
	return sb.String(), nil
}

// RunAny parses and executes either a plain query (returning a tabular
// result) or an EXPLAIN statement (returning the plan text).
func RunAny(e *lsm.Engine, query string) (res *Result, explain string, err error) {
	return RunAnyContext(context.Background(), e, query)
}

// RunAnyContext is RunAny under a context.
func RunAnyContext(ctx context.Context, e *lsm.Engine, query string) (res *Result, explain string, err error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, "", err
	}
	if stmt.Explain {
		explain, err = ExplainContext(ctx, e, stmt)
		return nil, explain, err
	}
	res, err = ExecuteContext(ctx, e, stmt)
	return res, "", err
}

func columnStrings(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.String()
	}
	return out
}

func cell(a m4.Aggregate, c Column) float64 {
	switch c {
	case ColFirstTime:
		return float64(a.First.T)
	case ColFirstValue:
		return a.First.V
	case ColLastTime:
		return float64(a.Last.T)
	case ColLastValue:
		return a.Last.V
	case ColBottomTime:
		return float64(a.Bottom.T)
	case ColBottomValue:
		return a.Bottom.V
	case ColTopTime:
		return float64(a.Top.T)
	default:
		if c == ColTopValue {
			return a.Top.V
		}
		return 0
	}
}
