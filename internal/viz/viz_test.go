package viz

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"io"
	"math/rand"
	"strings"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

func TestCanvasSetGet(t *testing.T) {
	c := NewCanvas(8, 4)
	if c.Get(3, 2) {
		t.Error("fresh canvas has lit pixel")
	}
	c.Set(3, 2)
	if !c.Get(3, 2) {
		t.Error("Set/Get mismatch")
	}
	// Out-of-bounds operations are ignored / false.
	c.Set(-1, 0)
	c.Set(8, 0)
	c.Set(0, 4)
	if c.Get(-1, 0) || c.Get(8, 0) || c.Get(0, 4) {
		t.Error("out-of-bounds Get returned true")
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
}

func TestNewCanvasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0x0 canvas")
		}
	}()
	NewCanvas(0, 5)
}

func TestDrawLineVertical(t *testing.T) {
	c := NewCanvas(4, 8)
	c.DrawLine(2, 1, 2, 6)
	for y := 1; y <= 6; y++ {
		if !c.Get(2, y) {
			t.Errorf("pixel (2,%d) not lit", y)
		}
	}
	if c.Count() != 6 {
		t.Errorf("Count = %d, want 6", c.Count())
	}
}

func TestDrawLineHorizontalAndDiagonal(t *testing.T) {
	c := NewCanvas(8, 8)
	c.DrawLine(1, 3, 6, 3)
	for x := 1; x <= 6; x++ {
		if !c.Get(x, 3) {
			t.Errorf("pixel (%d,3) not lit", x)
		}
	}
	d := NewCanvas(8, 8)
	d.DrawLine(0, 0, 7, 7)
	for i := 0; i < 8; i++ {
		if !d.Get(i, i) {
			t.Errorf("diagonal pixel (%d,%d) not lit", i, i)
		}
	}
}

func TestDrawLineSymmetric(t *testing.T) {
	a := NewCanvas(16, 16)
	b := NewCanvas(16, 16)
	a.DrawLine(2, 3, 13, 9)
	b.DrawLine(13, 9, 2, 3)
	if Diff(a, b) != 0 {
		t.Error("line drawing is direction dependent")
	}
}

func TestDiff(t *testing.T) {
	a, b := NewCanvas(4, 4), NewCanvas(4, 4)
	a.Set(0, 0)
	b.Set(3, 3)
	if Diff(a, b) != 2 {
		t.Errorf("Diff = %d, want 2", Diff(a, b))
	}
	b.Set(0, 0)
	a.Set(3, 3)
	if Diff(a, b) != 0 {
		t.Errorf("Diff = %d, want 0", Diff(a, b))
	}
}

func TestDiffPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	Diff(NewCanvas(2, 2), NewCanvas(3, 2))
}

func TestViewportMapping(t *testing.T) {
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	if vp.X(0, 10) != 0 || vp.X(99, 10) != 9 || vp.X(50, 10) != 5 {
		t.Error("X mapping wrong")
	}
	if vp.Y(10, 11) != 0 || vp.Y(0, 11) != 10 || vp.Y(5, 11) != 5 {
		t.Errorf("Y mapping wrong: %d %d %d", vp.Y(10, 11), vp.Y(0, 11), vp.Y(5, 11))
	}
	flat := Viewport{Tqs: 0, Tqe: 10, VMin: 3, VMax: 3}
	if flat.Y(3, 10) != 5 {
		t.Error("flat viewport must center values")
	}
}

func TestViewportFor(t *testing.T) {
	s := series.Series{{T: 5, V: -2}, {T: 10, V: 8}, {T: 200, V: 99}}
	vp := ViewportFor(s, 0, 100)
	if vp.VMin != -2 || vp.VMax != 8 {
		t.Errorf("viewport = %+v (out-of-range point must not count)", vp)
	}
	empty := ViewportFor(s, 300, 400)
	if empty.VMin != 0 || empty.VMax != 1 {
		t.Errorf("empty viewport = %+v", empty)
	}
}

func TestRasterizeSinglePoint(t *testing.T) {
	s := series.Series{{T: 50, V: 5}}
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	c := Rasterize(s, vp, 10, 11)
	if c.Count() != 1 || !c.Get(5, 5) {
		t.Errorf("single point raster wrong: count=%d", c.Count())
	}
}

func genSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, 0, n)
	tt := int64(0)
	v := 0.0
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			v += rng.NormFloat64() * 5
		case 1:
			v = rng.Float64() * 40
		default:
			v += rng.NormFloat64()
		}
		s = append(s, series.Point{T: tt, V: v})
	}
	return s
}

// TestM4ErrorFree validates the paper's headline property: rendering the
// M4-reduced series is pixel-identical to rendering the full series when
// the number of spans equals the pixel width.
func TestM4ErrorFree(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := genSeries(rng, 200+rng.Intn(2000))
		w := 10 + rng.Intn(90)
		h := 20 + rng.Intn(100)
		tqs := int64(0)
		tqe := s[len(s)-1].T + 1
		q := m4.Query{Tqs: tqs, Tqe: tqe, W: w}
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			t.Fatal(err)
		}
		reduced := m4.Points(aggs)
		vp := ViewportFor(s, tqs, tqe)
		full := Rasterize(s, vp, w, h)
		red := Rasterize(reduced, vp, w, h)
		if d := Diff(full, red); d != 0 {
			t.Fatalf("seed %d: pixel error %d of %d lit (w=%d h=%d n=%d)",
				seed, d, full.Count(), w, h, len(s))
		}
	}
}

// TestMinMaxIsNotErrorFree contrasts M4 with the MinMax reduction the
// paper mentions (§5.1): keeping only bottom/top per span loses the
// inter-column join pixels, so the diff must be nonzero on typical data.
func TestMinMaxIsNotErrorFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nonzero := 0
	for trial := 0; trial < 20; trial++ {
		s := genSeries(rng, 1500)
		w, h := 40, 40
		q := m4.Query{Tqs: 0, Tqe: s[len(s)-1].T + 1, W: w}
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			t.Fatal(err)
		}
		var minmax series.Series
		for _, a := range aggs {
			if a.Empty {
				continue
			}
			lo, hi := a.Bottom, a.Top
			if lo.T > hi.T {
				lo, hi = hi, lo
			}
			if lo.T == hi.T {
				minmax = append(minmax, lo)
				continue
			}
			minmax = append(minmax, lo, hi)
		}
		vp := ViewportFor(s, q.Tqs, q.Tqe)
		if Diff(Rasterize(s, vp, w, h), Rasterize(minmax, vp, w, h)) > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("MinMax rendered error-free on all trials; expected pixel errors")
	}
}

func TestASCII(t *testing.T) {
	c := NewCanvas(3, 2)
	c.Set(1, 0)
	got := c.ASCII()
	want := ".#.\n...\n"
	if got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
	if !strings.Contains(got, "#") {
		t.Error("no lit pixels in ASCII output")
	}
}

func TestWritePNG(t *testing.T) {
	c := NewCanvas(10, 5)
	c.DrawLine(0, 0, 9, 4)
	var buf bytes.Buffer
	if err := c.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 10 || img.Bounds().Dy() != 5 {
		t.Errorf("png bounds = %v", img.Bounds())
	}
}

// referencePNG is the per-pixel conversion WritePNG replaced: every pixel
// read through Get and written through SetGray.
func referencePNG(c *Canvas) []byte {
	img := image.NewGray(image.Rect(0, 0, c.W, c.H))
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.Get(x, y) {
				img.SetGray(x, y, color.Gray{Y: 0})
			} else {
				img.SetGray(x, y, color.Gray{Y: 255})
			}
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestWritePNGMatchesReference requires WritePNG's bytes to equal the
// per-pixel reference's on canvases whose pixel count is and is not a
// multiple of 64, empty, full and randomly lit.
func TestWritePNGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range [][2]int{{1000, 400}, {7, 3}, {65, 1}, {1, 1}, {64, 2}, {13, 11}} {
		for _, fill := range []float64{0, 0.02, 0.5, 1} {
			c := NewCanvas(size[0], size[1])
			for y := 0; y < c.H; y++ {
				for x := 0; x < c.W; x++ {
					if rng.Float64() < fill {
						c.Set(x, y)
					}
				}
			}
			var buf bytes.Buffer
			if err := c.WritePNG(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), referencePNG(c)) {
				t.Fatalf("%dx%d fill %v: PNG bytes differ from the per-pixel reference", c.W, c.H, fill)
			}
		}
	}
}

func BenchmarkWritePNG(b *testing.B) {
	c := NewCanvas(1000, 400)
	rng := rand.New(rand.NewSource(1))
	y := 200
	for x := 0; x < c.W; x++ {
		ny := max(0, min(c.H-1, y+rng.Intn(41)-20))
		c.DrawLine(x, y, x, ny)
		y = ny
	}
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.WritePNG(io.Discard)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referencePNG(c)
		}
	})
}

func TestRasterizeSkipsOutOfRange(t *testing.T) {
	s := series.Series{{T: -10, V: 0}, {T: 5, V: 5}, {T: 200, V: 9}}
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	c := Rasterize(s, vp, 10, 10)
	// Only t=5 is in range: exactly one pixel.
	if c.Count() != 1 {
		t.Errorf("count = %d, want 1", c.Count())
	}
}
