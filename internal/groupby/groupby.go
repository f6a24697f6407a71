// Package groupby implements per-span aggregation over LSM storage — the
// GroupBy companion of the M4 operator that dashboards combine with line
// charts (counts, averages and envelopes per pixel column).
//
// Two execution paths:
//
//   - When every requested function is representation-based
//     (First/Last/Min/Max), the query runs on the merge-free M4-LSM
//     operator: Min/Max are exactly BP/TP values and First/Last are FP/LP
//     values, so chunk metadata answers them without merging.
//   - Otherwise (Count/Sum/Avg need every surviving point) the query
//     streams the merge reader once, like the UDF baseline.
//
// Both paths take the operator's Options: Strict, Budget, Parallelism and
// the context's cancellation govern a GROUP BY exactly as they govern M4.
package groupby

import (
	"context"
	"fmt"
	"runtime"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/storage"
)

// Func is one aggregate function.
type Func uint8

// Supported aggregate functions.
const (
	Count Func = iota
	Sum
	Avg
	Min
	Max
	First
	Last
	numFuncs
)

var funcNames = [numFuncs]string{"count", "sum", "avg", "min", "max", "first", "last"}

// String returns the lower-case function name.
func (f Func) String() string {
	if int(f) < len(funcNames) {
		return funcNames[f]
	}
	return fmt.Sprintf("func(%d)", int(f))
}

// ByName resolves a case-insensitive function name.
func ByName(name string) (Func, bool) {
	for i, n := range funcNames {
		if equalFold(n, name) {
			return Func(i), true
		}
	}
	return 0, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Row is the aggregate vector of one non-empty span.
type Row struct {
	Span   int
	Values []float64 // parallel to the requested functions
}

// representable reports whether fns can be answered by the four M4
// representation points alone.
func representable(fns []Func) bool {
	for _, f := range fns {
		switch f {
		case Min, Max, First, Last:
		default:
			return false
		}
	}
	return true
}

// ComputeContext evaluates the aggregate functions per time span under a
// context. Spans without surviving points are omitted. The envelope path
// runs m4lsm.ComputeContext with opts; the merge path loads the snapshot
// through mergeread.LoadContext with opts' Parallelism (0 uses GOMAXPROCS),
// Strict and Budget, so an unreadable or over-budget chunk fails a strict
// query and degrades a lenient one with a snapshot warning. Cancellation
// returns ctx.Err().
func ComputeContext(ctx context.Context, snap *storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([]Row, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("groupby: no aggregate functions")
	}
	for _, f := range fns {
		if f >= numFuncs {
			return nil, fmt.Errorf("groupby: unknown function %d", f)
		}
	}
	if representable(fns) {
		return computeFromM4(ctx, snap, q, fns, opts)
	}
	return computeFromMerge(ctx, snap, q, fns, opts)
}

// computeFromM4 answers envelope functions from the merge-free operator.
func computeFromM4(ctx context.Context, snap *storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([]Row, error) {
	aggs, err := m4lsm.ComputeContext(ctx, snap, q, opts)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, a := range aggs {
		if a.Empty {
			continue
		}
		row := Row{Span: i, Values: make([]float64, len(fns))}
		for j, f := range fns {
			switch f {
			case Min:
				row.Values[j] = a.Bottom.V
			case Max:
				row.Values[j] = a.Top.V
			case First:
				row.Values[j] = a.First.V
			case Last:
				row.Values[j] = a.Last.V
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// spanAccum accumulates one span's running aggregates.
type spanAccum struct {
	count       int64
	sum         float64
	min, max    float64
	first, last float64
}

// computeFromMerge streams the merged series once.
func computeFromMerge(ctx context.Context, snap *storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([]Row, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	loaded, err := mergeread.LoadContext(ctx, snap, mergeread.LoadOptions{Parallelism: par, Strict: opts.Strict, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	it := loaded.Iterator(q.Range())
	accums := make([]spanAccum, q.W)
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		i := q.SpanIndex(p.T)
		if i < 0 {
			continue
		}
		acc := &accums[i]
		if acc.count == 0 {
			*acc = spanAccum{min: p.V, max: p.V, first: p.V}
		}
		if p.V < acc.min {
			acc.min = p.V
		}
		if p.V > acc.max {
			acc.max = p.V
		}
		acc.last = p.V
		acc.sum += p.V
		acc.count++
	}
	var rows []Row
	for i := range accums {
		acc := &accums[i]
		if acc.count == 0 {
			continue
		}
		row := Row{Span: i, Values: make([]float64, len(fns))}
		for j, f := range fns {
			switch f {
			case Count:
				row.Values[j] = float64(acc.count)
			case Sum:
				row.Values[j] = acc.sum
			case Avg:
				row.Values[j] = acc.sum / float64(acc.count)
			case Min:
				row.Values[j] = acc.min
			case Max:
				row.Values[j] = acc.max
			case First:
				row.Values[j] = acc.first
			case Last:
				row.Values[j] = acc.last
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
