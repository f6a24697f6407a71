package encoding_test

import (
	"math"
	"math/rand"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/workload"
)

func sensorData(n int) ([]int64, []float64) {
	rng := rand.New(rand.NewSource(5))
	ts := make([]int64, n)
	vs := make([]float64, n)
	cur := int64(1_600_000_000_000)
	val := 20.0
	for i := 0; i < n; i++ {
		cur += 1000
		if rng.Intn(300) == 0 {
			cur += int64(rng.Intn(50)) * 1000
		}
		val += math.Round(rng.NormFloat64()*4) / 4
		ts[i] = cur
		vs[i] = val
	}
	return ts, vs
}

func BenchmarkEncodeTimes(b *testing.B) {
	ts, _ := sensorData(1000)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encoding.EncodeTimes(nil, ts)
	}
}

func BenchmarkDecodeTimes(b *testing.B) {
	ts, _ := sensorData(1000)
	enc := encoding.EncodeTimes(nil, ts)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := encoding.DecodeTimes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeValuesGorilla(b *testing.B) {
	_, vs := sensorData(1000)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encoding.EncodeValues(nil, vs)
	}
}

func BenchmarkDecodeValuesGorilla(b *testing.B) {
	_, vs := sensorData(1000)
	enc := encoding.EncodeValues(nil, vs)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := encoding.DecodeValues(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeValuesPlain(b *testing.B) {
	_, vs := sensorData(1000)
	enc := encoding.EncodeValuesPlain(nil, vs)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := encoding.DecodeValuesPlain(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPresets encodes and decodes a 1000-point chunk of each workload
// preset, one column at a time. ns/op divided by 1000 is the cost per
// value.
func BenchmarkPresets(b *testing.B) {
	for k, p := range workload.Presets() {
		chunk := p.Generate(1000, int64(k+1))
		ts, vs := chunk.Times(), chunk.Values()
		tenc, venc := encoding.EncodeTimes(nil, ts), encoding.EncodeValues(nil, vs)
		b.Run(p.Name+"/EncodeTimes", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encoding.EncodeTimes(nil, ts)
			}
		})
		b.Run(p.Name+"/DecodeTimes", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := encoding.DecodeTimes(tenc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(p.Name+"/EncodeValues", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encoding.EncodeValues(nil, vs)
			}
		})
		b.Run(p.Name+"/DecodeValues", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := encoding.DecodeValues(venc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
