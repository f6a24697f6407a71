package tsfile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
)

// fixturePath is a chunk file written by the bit-at-a-time codec, before
// the word-at-a-time rewrite. For each workload preset it holds 1000 points
// (Generate(1000, i+1) for the i-th preset) twice: as a Gorilla chunk, then
// as a plain chunk. The plain copy is the reference, since decoding it is a
// little-endian load per field.
var fixturePath = filepath.Join("testdata", "presets-v0.tsf")

// fixturePoints opens the fixture and returns each series' points, read
// from its plain chunk.
func fixturePoints(tb testing.TB) (*Reader, map[string]series.Series) {
	tb.Helper()
	r, err := Open(fixturePath)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	want := map[string]series.Series{}
	for _, m := range r.Metas() {
		if m.Codec != encoding.CodecPlain {
			continue
		}
		data, err := r.ReadChunk(m)
		if err != nil {
			tb.Fatalf("%s v%d: %v", m.SeriesID, m.Version, err)
		}
		want[m.SeriesID] = data
	}
	if len(want) != 4 || len(r.Metas()) != 8 {
		tb.Fatalf("fixture has %d chunks over %d series, want 8 over 4", len(r.Metas()), len(want))
	}
	return r, want
}

// TestFixtureDecodesUnchanged: every Gorilla chunk of the old file decodes
// to its plain twin's points, bit for bit, through ReadChunk and ReadTimes.
func TestFixtureDecodesUnchanged(t *testing.T) {
	r, want := fixturePoints(t)
	for _, m := range r.Metas() {
		if m.Codec != encoding.CodecGorilla {
			continue
		}
		exp := want[m.SeriesID]
		got, err := r.ReadChunk(m)
		if err != nil {
			t.Fatalf("%s v%d: %v", m.SeriesID, m.Version, err)
		}
		ts, err := r.ReadTimes(m)
		if err != nil {
			t.Fatalf("%s v%d: times: %v", m.SeriesID, m.Version, err)
		}
		if len(exp) != 1000 || len(got) != len(exp) || len(ts) != len(exp) {
			t.Fatalf("%s: %d points, %d timestamps, plain twin %d", m.SeriesID, len(got), len(ts), len(exp))
		}
		for i, p := range exp {
			if got[i].T != p.T || ts[i] != p.T || math.Float64bits(got[i].V) != math.Float64bits(p.V) {
				t.Fatalf("%s point %d: got %v (time column %d), want %v", m.SeriesID, i, got[i], ts[i], p)
			}
		}
	}
}

// TestFixtureRewritesIdentically: writing the fixture's chunks again, in
// its order and with its versions and codecs, reproduces the old file byte
// for byte.
func TestFixtureRewritesIdentically(t *testing.T) {
	r, want := fixturePoints(t)
	path := filepath.Join(t.TempDir(), "rewrite.tsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range r.Metas() {
		if _, err := w.WriteChunk(m.SeriesID, m.Version, m.Codec, want[m.SeriesID]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, old) {
		t.Fatalf("rewritten file differs from the fixture (%d vs %d bytes)", len(fresh), len(old))
	}
}

// BenchmarkReadChunk measures one full chunk load from an open file: read,
// checksum, decode both columns and build the points. Each preset's
// 1000-point Gorilla chunk from the fixture is a sub-benchmark.
func BenchmarkReadChunk(b *testing.B) {
	r, _ := fixturePoints(b)
	for _, m := range r.Metas() {
		if m.Codec != encoding.CodecGorilla {
			continue
		}
		b.Run(m.SeriesID, func(b *testing.B) {
			b.SetBytes(m.Count * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.ReadChunk(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
