package encoding_test

import (
	"bytes"
	"math"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/workload"
)

// TestFormatUnchangedOnPresets holds the codecs to the bit-at-a-time
// oracle on every workload preset: 1000-point chunks must encode to the
// same bytes and decode to the same points, bit for bit.
func TestFormatUnchangedOnPresets(t *testing.T) {
	for i, p := range workload.Presets() {
		data := p.Generate(4000, int64(i+1))
		for off := 0; off < len(data); off += 1000 {
			chunk := data[off : off+1000]
			ts, vs := chunk.Times(), chunk.Values()

			enc := encoding.EncodeValues(nil, vs)
			if want := encoding.OracleEncodeValues(nil, vs); !bytes.Equal(enc, want) {
				t.Fatalf("%s chunk at %d: value block differs from the oracle (%d vs %d bytes)", p.Name, off, len(enc), len(want))
			}
			got, _, err := encoding.DecodeValues(enc)
			if err != nil {
				t.Fatalf("%s chunk at %d: %v", p.Name, off, err)
			}
			want, _, err := encoding.OracleDecodeValues(enc)
			if err != nil {
				t.Fatalf("%s chunk at %d: oracle: %v", p.Name, off, err)
			}
			for j := range vs {
				if g, w := math.Float64bits(got[j]), math.Float64bits(want[j]); g != w || w != math.Float64bits(vs[j]) {
					t.Fatalf("%s value %d: got %x, oracle %x, written %x", p.Name, off+j, g, w, math.Float64bits(vs[j]))
				}
			}

			tenc := encoding.EncodeTimes(nil, ts)
			gotTS, _, err := encoding.DecodeTimes(tenc)
			if err != nil {
				t.Fatalf("%s chunk at %d: %v", p.Name, off, err)
			}
			wantTS, _, err := encoding.OracleDecodeTimes(tenc)
			if err != nil {
				t.Fatalf("%s chunk at %d: oracle: %v", p.Name, off, err)
			}
			for j := range ts {
				if gotTS[j] != wantTS[j] || wantTS[j] != ts[j] {
					t.Fatalf("%s timestamp %d: got %d, oracle %d, written %d", p.Name, off+j, gotTS[j], wantTS[j], ts[j])
				}
			}
		}
	}
}
