package storage

import (
	"math"
	"math/rand"
	"testing"
)

func naiveCovered(dels []Delete, t int64, ver Version) bool {
	for _, d := range dels {
		if d.Version > ver && d.Covers(t) {
			return true
		}
	}
	return false
}

func TestDeleteIndexBasic(t *testing.T) {
	dels := []Delete{
		{Version: 3, Start: 10, End: 20},
		{Version: 5, Start: 15, End: 30},
	}
	ix := NewDeleteIndex(dels)
	cases := []struct {
		t    int64
		ver  Version
		want bool
	}{
		{9, 1, false},
		{10, 1, true},
		{10, 3, false}, // only v3 covers t=10; not later than v3
		{15, 3, true},  // v5 covers
		{15, 5, false},
		{30, 4, true},
		{31, 0, false},
	}
	for _, c := range cases {
		if got := ix.Covered(c.t, c.ver); got != c.want {
			t.Errorf("Covered(%d, v%d) = %v, want %v", c.t, c.ver, got, c.want)
		}
	}
}

func TestDeleteIndexEmpty(t *testing.T) {
	ix := NewDeleteIndex(nil)
	if ix.Covered(5, 0) {
		t.Error("empty index covered a point")
	}
}

func TestDeleteIndexMaxInt64End(t *testing.T) {
	ix := NewDeleteIndex([]Delete{{Version: 2, Start: 100, End: math.MaxInt64}})
	if !ix.Covered(math.MaxInt64, 1) || !ix.Covered(100, 1) || ix.Covered(99, 1) {
		t.Error("open-ended delete mishandled")
	}
}

func TestDeleteIndexAgainstNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(20)
		dels := make([]Delete, 0, n)
		for i := 0; i < n; i++ {
			start := rng.Int63n(200)
			dels = append(dels, Delete{
				Version: Version(rng.Intn(10)),
				Start:   start,
				End:     start + rng.Int63n(60),
			})
		}
		ix := NewDeleteIndex(dels)
		for probe := 0; probe < 100; probe++ {
			tt := rng.Int63n(300) - 20
			ver := Version(rng.Intn(12))
			if got, want := ix.Covered(tt, ver), naiveCovered(dels, tt, ver); got != want {
				t.Fatalf("trial %d: Covered(%d, v%d) = %v, want %v (dels %v)", trial, tt, ver, got, want, dels)
			}
		}
	}
}

// TestDeleteCursorMatchesIndex walks ascending timestamps (with repeats)
// from a random start and requires the cursor to answer like Covered.
func TestDeleteCursorMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(20)
		dels := make([]Delete, 0, n)
		for i := 0; i < n; i++ {
			start := rng.Int63n(200)
			dels = append(dels, Delete{Version: Version(rng.Intn(10)), Start: start, End: start + rng.Int63n(60)})
		}
		ix := NewDeleteIndex(dels)
		ver := Version(rng.Intn(12))
		tt := rng.Int63n(300) - 50
		c := ix.Cursor(tt, ver)
		for ; tt < 320; tt += rng.Int63n(4) {
			if got, want := c.Covered(tt), ix.Covered(tt, ver); got != want {
				t.Fatalf("trial %d: cursor Covered(%d, v%d) = %v, want %v (dels %v)", trial, tt, ver, got, want, dels)
			}
		}
	}
}
