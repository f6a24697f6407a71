package m4udf

import (
	"context"
	"math/rand"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/obs"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// scanTasks runs fn under an armed trace and counts its "scan" tasks.
func scanTasks(t *testing.T, fn func(ctx context.Context) error) int {
	t.Helper()
	ctx, tr := obs.WithTrace(context.Background())
	if err := fn(ctx); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, task := range tr.Finish().Tasks {
		if task.G == "scan" {
			n++
		}
	}
	return n
}

// TestMultiLoneSeriesKeepsParallelism: a one-snapshot batch scans its span
// blocks at the caller's parallelism, exactly like ComputeContext, instead
// of the sequential per-series scan a multi-series batch uses.
func TestMultiLoneSeriesKeepsParallelism(t *testing.T) {
	snap := testutil.RandomSnapshot(rand.New(rand.NewSource(7)), testutil.DefaultGenConfig)
	q := m4.Query{Tqs: 0, Tqe: 130, W: 8}
	opts := Options{Parallelism: 4}
	var single []m4.Aggregate
	want := scanTasks(t, func(ctx context.Context) (err error) {
		single, err = ComputeContext(ctx, snap, q, opts)
		return err
	})
	if want != opts.Parallelism {
		t.Fatalf("ComputeContext recorded %d scan tasks, want %d", want, opts.Parallelism)
	}
	var batch [][]m4.Aggregate
	got := scanTasks(t, func(ctx context.Context) (err error) {
		batch, err = ComputeMultiContext(ctx, []*storage.Snapshot{snap}, q, opts)
		return err
	})
	if got != want {
		t.Fatalf("one-snapshot batch recorded %d scan tasks, ComputeContext %d", got, want)
	}
	for i := range single {
		if batch[0][i] != single[i] {
			t.Fatalf("span %d: batch %v, single %v", i, batch[0][i], single[i])
		}
	}
}
