package query

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"m4lsm/internal/govern"
	"m4lsm/internal/groupby"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/tsfile"
)

// newEngine opens an engine holding root.a and root.b (200 points each in
// chunks of 20, with a delete) and other.c.
func newEngine(t *testing.T, dir string) *lsm.Engine {
	t.Helper()
	e, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for _, id := range []string{"root.a", "root.b", "other.c"} {
		for i := 0; i < 200; i++ {
			if err := e.Write(id, series.Point{T: int64(i * 5), V: float64((i*13)%31 + len(id))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Delete(id, 200, 300); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMatch(t *testing.T) {
	e := newEngine(t, t.TempDir())
	if got, want := Match(e, "root."), []string{"root.a", "root.b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Match(root.) = %v, want %v", got, want)
	}
	if got, want := Match(e, ""), []string{"other.c", "root.a", "root.b"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Match() = %v, want %v", got, want)
	}
	if got := Match(e, "nope."); got != nil {
		t.Errorf("Match(nope.) = %v, want nil", got)
	}
}

// TestRunForms: each request form answers what the operator it selects
// answers on a fresh snapshot, series by series and in request order.
func TestRunForms(t *testing.T) {
	e := newEngine(t, t.TempDir())
	ids := []string{"root.b", "root.a"}
	q := m4.Query{Tqs: 0, Tqe: 1000, W: 7}
	lttb := reprops.Spec{Kind: reprops.KindLTTB}
	fns := []groupby.Func{groupby.Count, groupby.Max}
	for _, req := range []Request{
		{Query: q},
		{Query: q, UDF: true, Parallelism: 2},
		{Query: q, Represent: &lttb},
		{Query: q, Represent: &lttb, UDF: true},
		{Query: q, Funcs: fns},
	} {
		req.IDs = ids
		res, err := Run(context.Background(), e, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != len(ids) {
			t.Fatalf("%+v: %d series, want %d", req, len(res.Series), len(ids))
		}
		for i, s := range res.Series {
			if s.ID != ids[i] {
				t.Fatalf("series %d = %q, want %q", i, s.ID, ids[i])
			}
			if s.Stats.ChunksLoaded+s.Stats.ChunksPruned == 0 {
				t.Errorf("%s: no cost recorded: %+v", s.ID, s.Stats)
			}
			snap, err := e.Snapshot(s.ID, q.Range())
			if err != nil {
				t.Fatal(err)
			}
			var want, got interface{}
			switch {
			case req.Funcs != nil:
				want, err = groupby.ComputeContext(context.Background(), snap, q, fns, m4lsm.Options{})
				got = s.Rows
			case req.Represent != nil && req.UDF:
				want, err = m4udf.Reduce(snap, q, lttb)
				got = s.Points
			case req.Represent != nil:
				want, err = m4lsm.Reduce(snap, q, lttb)
				got = s.Points
			case req.UDF:
				want, err = m4udf.Compute(snap, q)
				got = s.Aggregates
			default:
				want, err = m4lsm.Compute(snap, q)
				got = s.Aggregates
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v: %s: got %v, want %v", req, s.ID, got, want)
			}
		}
	}
}

// TestRunStrictFailsOnQuarantine: after a lenient read quarantines a
// corrupt chunk, the next snapshot reports it; a strict request fails on
// that warning (attributed to its series in a batch) and a lenient one
// carries it in the series' Warnings.
func TestRunStrictFailsOnQuarantine(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, dir)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	corrupted := false
	for _, f := range files {
		r, err := tsfile.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		metas := r.Metas()
		r.Close()
		for _, meta := range metas {
			if meta.SeriesID != "root.b" {
				continue
			}
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			raw[meta.Offset+meta.HeaderLen+meta.TimesLen] ^= 0x40
			if err := os.WriteFile(f, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
			break
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Fatal("no root.b chunk found")
	}
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := m4.Query{Tqs: 0, Tqe: 1000, W: 7}
	lenient := Request{IDs: []string{"root.a", "root.b"}, Query: q, UDF: true}
	res, err := Run(context.Background(), e, lenient)
	if err != nil {
		t.Fatalf("lenient read must degrade, not fail: %v", err)
	}
	if len(res.Series[0].Warnings) != 0 || len(res.Series[1].Warnings) == 0 {
		t.Fatalf("warnings = %q / %q, want only root.b's", res.Series[0].Warnings, res.Series[1].Warnings)
	}
	strict := lenient
	strict.Strict = true
	strict.UDF = false
	if _, err := Run(context.Background(), e, strict); err == nil ||
		!strings.Contains(err.Error(), `series "root.b"`) || !strings.Contains(err.Error(), "strict read") {
		t.Errorf("strict batch: got %v, want a strict read error for root.b", err)
	}
	strict.IDs = []string{"root.a"}
	if _, err := Run(context.Background(), e, strict); err != nil {
		t.Errorf("strict read of the healthy series: %v", err)
	}
	if _, err := Snapshots(e, []string{"root.b"}, q.Range(), true); err == nil {
		t.Error("Snapshots(strict) accepted a quarantined chunk")
	}
}

// TestRunKeepsStatsOnError: a request failing inside the operator still
// returns each series' cost, so callers can account for it.
func TestRunKeepsStatsOnError(t *testing.T) {
	e := newEngine(t, t.TempDir())
	req := Request{
		IDs:    []string{"root.a", "root.b"},
		Query:  m4.Query{Tqs: 0, Tqe: 1000, W: 7},
		Funcs:  []groupby.Func{groupby.Count},
		Strict: true,
		Budget: govern.NewBudget(govern.Limits{MaxChunks: 1}),
	}
	res, err := Run(context.Background(), e, req)
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if res == nil || len(res.Series) != 2 || res.Series[0].Stats.ChunksLoaded == 0 {
		t.Fatalf("result next to the error = %+v, want root.a's loads", res)
	}
	if _, err := Run(context.Background(), e, Request{IDs: req.IDs, Query: m4.Query{Tqs: 5, Tqe: 5, W: 1}}); err == nil {
		t.Error("invalid query accepted")
	}
}
