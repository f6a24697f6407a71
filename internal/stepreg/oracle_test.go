package stepreg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracleBuild is the original sort-based Build, kept as the reference the
// O(n) build must reproduce bit for bit: median by sorting a copy of the
// deltas, and the error guard evaluated through a per-point binary search
// over the splits (oracleEval).
func oracleBuild(ts []int64) *Index {
	ix := &Index{ts: ts}
	n := len(ts)
	if n < 2 {
		ix.k = 1
		if n == 1 {
			ix.splits = []int64{ts[0], ts[0]}
			ix.intercepts = []float64{1}
		}
		return ix
	}

	deltas := make([]int64, n-1)
	for i := 1; i < n; i++ {
		deltas[i-1] = ts[i] - ts[i-1]
	}
	med := oracleMedian(deltas)
	if med <= 0 {
		med = 1
	}
	ix.k = 1 / float64(med)

	mu, sigma := meanStd(deltas)
	thr := mu + 3*sigma

	var changing []int
	for j := 2; j <= n-1; j++ {
		dPrev := float64(ts[j-1] - ts[j-2])
		dNext := float64(ts[j] - ts[j-1])
		if (dPrev <= thr && dNext > thr) || (dPrev > thr && dNext <= thr) {
			changing = append(changing, j)
		}
	}

	m := len(changing) + 2
	nseg := m - 1
	b := make([]float64, nseg+1)
	b[1] = 1 - ix.k*float64(ts[0])
	if nseg >= 2 {
		if nseg%2 == 1 {
			b[nseg] = float64(n) - ix.k*float64(ts[n-1])
		} else {
			b[nseg] = float64(n)
		}
	}
	for i := 2; i <= nseg-1; i++ {
		j := changing[i-2]
		if i%2 == 1 {
			b[i] = float64(j) - ix.k*float64(ts[j-1])
		} else {
			b[i] = float64(j)
		}
	}

	splits := make([]int64, m+1)
	splits[1] = ts[0]
	splits[m] = ts[n-1]
	for i := 2; i <= m-1; i++ {
		var t float64
		if i%2 == 1 {
			t = (b[i-1] - b[i]) / ix.k
		} else {
			t = (b[i] - b[i-1]) / ix.k
		}
		splits[i] = int64(math.Round(t))
	}
	for i := 2; i <= m; i++ {
		if splits[i] < splits[i-1] {
			splits[i] = splits[i-1]
		}
	}
	ix.splits = splits[1:]
	ix.intercepts = b[1:]

	for i, t := range ts {
		pred := oracleEval(ix, t)
		if e := absInt(int(math.Round(pred)) - (i + 1)); e > ix.maxErr {
			ix.maxErr = e
		}
	}
	return ix
}

func oracleEval(ix *Index, t int64) float64 {
	m := len(ix.splits)
	if m == 0 {
		return 1
	}
	i := sort.Search(m, func(i int) bool { return ix.splits[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	if i > m-2 {
		i = m - 2
	}
	if i < 0 {
		i = 0
	}
	if i >= len(ix.intercepts) {
		i = len(ix.intercepts) - 1
	}
	if (i+1)%2 == 1 {
		return ix.k*float64(t) + ix.intercepts[i]
	}
	return ix.intercepts[i]
}

func oracleMedian(xs []int64) int64 {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// sameModel reports the first difference between two learned models: the
// slope, splits and intercepts compared as bit patterns, and maxErr.
func sameModel(got, want *Index) string {
	if math.Float64bits(got.k) != math.Float64bits(want.k) {
		return "k"
	}
	if !slices.Equal(got.splits, want.splits) {
		return "splits"
	}
	if len(got.intercepts) != len(want.intercepts) {
		return "intercepts"
	}
	for i := range got.intercepts {
		if math.Float64bits(got.intercepts[i]) != math.Float64bits(want.intercepts[i]) {
			return "intercepts"
		}
	}
	if got.maxErr != want.maxErr {
		return "maxErr"
	}
	return ""
}

// checkOracle requires Build's model to equal the oracle's exactly and its
// probes to answer like PlainIndex at every timestamp, its neighbours, and
// the given extra probes.
func checkOracle(t *testing.T, name string, ts []int64, extra []int64) {
	t.Helper()
	got, want := Build(ts), oracleBuild(ts)
	if field := sameModel(got, want); field != "" {
		t.Fatalf("%s (n=%d): %s differs from the oracle: got k=%v splits=%v b=%v maxErr=%d, want k=%v splits=%v b=%v maxErr=%d",
			name, len(ts), field, got.k, got.splits, got.intercepts, got.maxErr,
			want.k, want.splits, want.intercepts, want.maxErr)
	}
	px := NewPlain(ts)
	probe := func(q int64) {
		if g, w := got.Exists(q), px.Exists(q); g != w {
			t.Fatalf("%s: Exists(%d) = %v, want %v", name, q, g, w)
		}
		gi, gok := got.FirstAfter(q)
		wi, wok := px.FirstAfter(q)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("%s: FirstAfter(%d) = %d,%v, want %d,%v", name, q, gi, gok, wi, wok)
		}
		gi, gok = got.LastBefore(q)
		wi, wok = px.LastBefore(q)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("%s: LastBefore(%d) = %d,%v, want %d,%v", name, q, gi, gok, wi, wok)
		}
	}
	for _, q := range ts {
		probe(q - 1)
		probe(q)
		probe(q + 1)
	}
	for _, q := range extra {
		probe(q)
	}
}

// burstyChunk mimics the benchmark dataset's chunks: runs of points at
// 1 ms spacing separated by 750-1000 ms transmission gaps.
func burstyChunk(rng *rand.Rand, n, run int) []int64 {
	ts := make([]int64, 0, n)
	cur := int64(1_700_000_000_000) + rng.Int63n(1<<20)
	left := rng.Intn(run) + 1 // the chunk may start mid-run
	for len(ts) < n {
		ts = append(ts, cur)
		cur++
		if left--; left == 0 {
			cur += 750 + rng.Int63n(251)
			left = run
		}
	}
	return ts
}

// genChunk draws one chunk of the given shape.
func genChunk(rng *rand.Rand, shape string, n int) []int64 {
	ts := make([]int64, 0, n)
	cur := rng.Int63n(1 << 40)
	switch shape {
	case "regular":
		step := 1 + rng.Int63n(10000)
		for i := 0; i < n; i++ {
			ts = append(ts, cur+int64(i)*step)
		}
	case "bursty":
		return burstyChunk(rng, n, 1+rng.Intn(300))
	case "random":
		for i := 0; i < n; i++ {
			cur += 1 + rng.Int63n(5000)
			ts = append(ts, cur)
		}
	default: // adversarial: few distinct deltas, sawtooth and geometric runs
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				cur++
			case 1:
				cur += int64(1) << uint(rng.Intn(40))
			case 2:
				cur += int64(i%7 + 1)
			default:
				cur += 1_000_000
			}
			ts = append(ts, cur)
		}
	}
	return ts
}

func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []string{"regular", "bursty", "random", "adversarial"}
	count := 2000
	if testing.Short() {
		count = 400
	}
	for iter := 0; iter < count; iter++ {
		shape := shapes[iter%len(shapes)]
		n := rng.Intn(1200)
		if iter%10 == 0 {
			n = rng.Intn(4) // 0..3-point chunks
		}
		ts := genChunk(rng, shape, n)
		var extra []int64
		if n > 0 {
			lo, hi := ts[0]-5000, ts[n-1]+5000
			for i := 0; i < 50; i++ {
				extra = append(extra, lo+rng.Int63n(hi-lo))
			}
		}
		checkOracle(t, shape, ts, extra)
	}
	checkOracle(t, "paper", paperChunk(), nil)
}

// TestSelectKth compares the selection with sorting on duplicate-heavy,
// sorted, reversed and random inputs, including the sort fallback.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(300)
		xs := make([]int64, n)
		spread := int64(1 + rng.Intn(1000))
		for i := range xs {
			xs[i] = rng.Int63n(spread)
		}
		switch iter % 3 {
		case 1:
			slices.Sort(xs)
		case 2:
			slices.Sort(xs)
			slices.Reverse(xs)
		}
		k := rng.Intn(n)
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		if got := selectKth(xs, k); got != sorted[k] {
			t.Fatalf("selectKth(k=%d, n=%d) = %d, want %d", k, n, got, sorted[k])
		}
	}
}

// FuzzBuild decodes the input as a delta stream (two bytes per delta,
// shaped by a mode byte) and requires the oracle's model and PlainIndex's
// probe answers.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 0, 9, 0, 9, 3, 0, 0, 9, 0, 9})
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 3, 0xe8, 0, 1, 0, 1, 3, 0xff})
	f.Add([]byte{3, 0xff, 0xff, 0, 1, 0x80, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 8193 {
			return
		}
		mode, data := data[0], data[1:]
		ts := make([]int64, 0, len(data)/2+1)
		cur := int64(mode) << 32
		ts = append(ts, cur)
		for len(data) >= 2 {
			d := int64(binary.BigEndian.Uint16(data)) + 1
			data = data[2:]
			switch mode % 4 {
			case 1: // scaled cadence
				d *= 1000
			case 2: // bursts: small deltas stay 1 ms
				if d < 0x300 {
					d = 1
				}
			case 3: // wide spread
				d *= d
			}
			cur += d
			ts = append(ts, cur)
		}
		checkOracle(t, "fuzz", ts, []int64{ts[0] - 1 - int64(mode), cur + int64(mode)})
	})
}
