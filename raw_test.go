package m4lsm

import (
	"bytes"
	"context"
	"image/png"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"m4lsm/internal/tsfile"
)

func TestRaw(t *testing.T) {
	db := openDB(t)
	db.Write("s", Point{Time: 30, Value: 3}, Point{Time: 10, Value: 1}, Point{Time: 20, Value: 2})
	db.Flush()
	db.Write("s", Point{Time: 20, Value: 9}) // overwrite
	db.Delete("s", 30, 30)
	got, err := db.Raw("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{{Time: 10, Value: 1}, {Time: 20, Value: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Raw = %v, want %v", got, want)
	}
	// Range restriction.
	got, err = db.Raw("s", 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Time != 20 {
		t.Fatalf("Raw restricted = %v", got)
	}
	if _, err := db.Raw("s", 10, 10); err == nil {
		t.Error("empty range accepted")
	}
}

func TestRender(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 200; i++ {
		db.Write("s", Point{Time: int64(i * 5), Value: float64((i * 3) % 17)})
	}
	db.Flush()
	raw, err := db.Render("s", 0, 1000, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 80 || img.Bounds().Dy() != 40 {
		t.Errorf("bounds = %v", img.Bounds())
	}
	if _, err := db.Render("s", 0, 1000, 0, 40); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := db.Render("s", 0, 1000, 80, 0); err == nil {
		t.Error("h=0 accepted")
	}
}

func TestM4Multi(t *testing.T) {
	db := openDB(t, WithFlushThreshold(16))
	for s := 0; s < 5; s++ {
		id := string(rune('a' + s))
		for i := 0; i < 64; i++ {
			db.Write(id, Point{Time: int64(i * 10), Value: float64(s*100 + i%9)})
		}
	}
	db.Flush()
	ids := []string{"a", "b", "c", "d", "e"}
	got, err := db.M4Multi(ids, 0, 640, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("series = %d", len(got))
	}
	for s, id := range ids {
		if got[s].SeriesID != id {
			t.Fatalf("series %d = %q, want %q", s, got[s].SeriesID, id)
		}
		aggs := got[s].Aggregates
		if len(aggs) != 4 {
			t.Fatalf("%s: %d spans", id, len(aggs))
		}
		// Each series' values sit in its own band.
		if aggs[0].Bottom.Value < float64(s*100) || aggs[0].Top.Value >= float64(s*100+9) {
			t.Errorf("%s span0 = %+v", id, aggs[0])
		}
		// Must match the single-series result exactly.
		single, _, err := db.M4(id, 0, 640, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single {
			if single[i] != aggs[i] {
				t.Fatalf("%s span %d: multi %v, single %v", id, i, aggs[i], single[i])
			}
		}
	}
	if _, err := db.M4Multi(ids, 5, 5, 1); err == nil {
		t.Error("invalid range accepted")
	}
}

// TestTupleFormsReadStrictly: once a lenient read has quarantined a corrupt
// chunk, every tuple-form call fails instead of answering from the chunks
// that are left: M4, Raw and Render alike.
func TestTupleFormsReadStrictly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFlushThreshold(100))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := db.Write("s", Point{Time: int64(i), Value: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) != 3 {
		t.Fatalf("chunk files = %v, want 3", files)
	}
	r, err := tsfile.Open(files[1])
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Metas()[0]
	r.Close()
	raw, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[meta.Offset+meta.HeaderLen+meta.TimesLen] ^= 0x40 // first value byte
	if err := os.WriteFile(files[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.RepresentContext(context.Background(), "s", 0, 300, 10, RepresentOptions{Representation: "lttb"})
	if err != nil {
		t.Fatalf("lenient read must degrade, not fail: %v", err)
	}
	if !res.Partial || db.Info().QuarantinedChunks != 1 {
		t.Fatalf("partial=%v quarantined=%d, want a quarantined chunk", res.Partial, db.Info().QuarantinedChunks)
	}
	if _, _, err := db.M4("s", 0, 300, 10); err == nil {
		t.Error("M4 answered without the quarantined chunk")
	}
	if pts, err := db.Raw("s", 0, 300); err == nil {
		t.Errorf("Raw returned %d of 300 points without an error", len(pts))
	}
	if _, err := db.Render("s", 0, 300, 10, 10); err == nil {
		t.Error("Render drew the chart without the quarantined chunk")
	}
}
