package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The fuzz targets are differential: the word-at-a-time codecs must agree
// with the bit-at-a-time oracle (oracle_test.go) on every input. Decoders
// must both fail or both return the same values bit for bit and the same
// remainder; encoders must emit the same bytes.

// walk returns n sensor-like samples: 1 s ticks with occasional gaps and
// a random walk in quarter steps.
func walk(n int) ([]int64, []float64) {
	rng := rand.New(rand.NewSource(5))
	ts := make([]int64, n)
	vs := make([]float64, n)
	t, v := int64(1_600_000_000_000), 20.0
	for i := range ts {
		t += 1000 + int64(rng.Intn(2))*int64(rng.Intn(50))*1000
		v += math.Round(rng.NormFloat64()*4) / 4
		ts[i], vs[i] = t, v
	}
	return ts, vs
}

// fuzzValueSeeds returns encoded value blocks worth mutating: sensor-like
// data, a constant run, a single value, and special floats.
func fuzzValueSeeds() [][]byte {
	_, sensor := walk(200)
	constant := []float64{21.5, 21.5, 21.5, 21.5, 21.5, 21.5, 21.5, 21.5, 21.5}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN()}
	var seeds [][]byte
	for _, vs := range [][]float64{nil, {3.14}, sensor, constant, special} {
		enc := oracleEncodeValues(nil, vs)
		seeds = append(seeds, enc, enc[:len(enc)/2])
	}
	return seeds
}

// floatsFromBytes reads b as little-endian float64 bit patterns, then
// appends a run that drifts from the last one by small XORs, the shape
// Gorilla's window reuse is built for.
func floatsFromBytes(b []byte) []float64 {
	var vs []float64
	var prev uint64
	for ; len(b) >= 8; b = b[8:] {
		prev = binary.LittleEndian.Uint64(b)
		vs = append(vs, math.Float64frombits(prev))
	}
	for _, c := range b {
		prev ^= uint64(c) << (c % 57)
		vs = append(vs, math.Float64frombits(prev))
	}
	return vs
}

func FuzzDecodeValues(f *testing.F) {
	for _, s := range fuzzValueSeeds() {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotRest, err := DecodeValues(b)
		want, wantRest, wantErr := oracleDecodeValues(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode error mismatch: new %v, oracle %v", err, wantErr)
		}
		if err == nil {
			sameFloats(t, got, want)
			if !bytes.Equal(gotRest, wantRest) {
				t.Fatalf("remainder %x, oracle %x", gotRest, wantRest)
			}
		}

		vs := floatsFromBytes(b)
		enc := EncodeValues(nil, vs)
		if oracle := oracleEncodeValues(nil, vs); !bytes.Equal(enc, oracle) {
			t.Fatalf("encoding of %d values differs from the oracle:\n new %x\n old %x", len(vs), enc, oracle)
		}
		back, rest, err := DecodeValues(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("round trip: rest %d, err %v", len(rest), err)
		}
		sameFloats(t, back, vs)
	})
}

func FuzzDecodeTimes(f *testing.F) {
	ts, _ := walk(200)
	regular := []int64{0, 1000, 2000, 3000, 4000, 5000}
	for _, s := range [][]int64{nil, {42}, {-7, 9}, regular, ts} {
		enc := EncodeTimes(nil, s)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add(bytes.Repeat([]byte{0x80}, 12))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gotRest, err := DecodeTimes(b)
		want, wantRest, wantErr := oracleDecodeTimes(b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode error mismatch: new %v, oracle %v", err, wantErr)
		}
		if err == nil {
			if len(got) != len(want) {
				t.Fatalf("decoded %d timestamps, oracle %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ts[%d] = %d, oracle %d", i, got[i], want[i])
				}
			}
			if !bytes.Equal(gotRest, wantRest) {
				t.Fatalf("remainder %x, oracle %x", gotRest, wantRest)
			}
		}

		// Any int64 sequence round-trips, including wrapping deltas.
		var in []int64
		for r := b; len(r) >= 8; r = r[8:] {
			in = append(in, int64(binary.LittleEndian.Uint64(r)))
		}
		back, rest, err := DecodeTimes(EncodeTimes(nil, in))
		if err != nil || len(rest) != 0 || len(back) != len(in) {
			t.Fatalf("round trip of %d timestamps: got %d, rest %d, err %v", len(in), len(back), len(rest), err)
		}
		for i := range in {
			if back[i] != in[i] {
				t.Fatalf("round trip ts[%d] = %d, want %d", i, back[i], in[i])
			}
		}
	})
}

func sameFloats(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d = %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
