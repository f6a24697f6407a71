package encoding

import (
	"math"
	"math/bits"
	"slices"
)

// Gorilla XOR codec for float64 values (Pelkonen et al., VLDB'15), the
// scheme used by commodity time-series stores for slowly varying sensor
// readings. Each value is XORed with its predecessor; a zero XOR costs one
// bit, a XOR inside the previous leading/trailing-zero window costs the
// meaningful bits plus two control bits, otherwise 5+6 bits of window
// description are spent.
//
// Layout:
//
//	uvarint count
//	bit stream: first value as 64 raw bits, then per value:
//	  '0'                                  -> same as previous
//	  '10' + meaningful bits               -> fits previous window
//	  '11' + 5b leading + 6b sigbits + sig -> new window

// EncodeValues appends the encoded form of vs to dst.
func EncodeValues(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	if len(vs) == 0 {
		return dst
	}
	w := bitWriter{}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	leading, trailing := uint(65), uint(0) // 65 marks "no window yet"
	for _, v := range vs[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lz := uint(bits.LeadingZeros64(xor))
		tz := uint(bits.TrailingZeros64(xor))
		if lz >= 32 {
			lz = 31 // 5-bit field
		}
		if leading <= 64 && lz >= leading && tz >= trailing {
			// Fits inside the previous window.
			w.writeBit(0)
			n := 64 - leading - trailing
			w.writeBits(xor>>trailing, n)
			continue
		}
		leading, trailing = lz, tz
		n := 64 - leading - trailing
		w.writeBit(1)
		w.writeBits(uint64(leading), 5)
		// n is in [1, 64]; store n-1 in 6 bits.
		w.writeBits(uint64(n-1), 6)
		w.writeBits(xor>>trailing, n)
	}
	payload := w.bytes()
	dst = AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// DecodeValues decodes a block produced by EncodeValues and returns the
// values along with the remaining buffer.
func DecodeValues(b []byte) ([]float64, []byte, error) { return appendValues(nil, b) }

// appendValues is DecodeValues appending to dst. The control bits and the
// window header are tested straight off the reader's accumulator.
func appendValues(dst []float64, b []byte) ([]float64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	const maxCount = 1 << 31
	if count > maxCount {
		return nil, nil, corruptf("value count %d too large", count)
	}
	if count == 0 {
		return dst, b, nil
	}
	plen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if plen > uint64(len(b)) {
		return nil, nil, corruptf("value payload %d exceeds buffer %d", plen, len(b))
	}
	// The first value takes 64 bits and every later one at least 1, so a
	// larger count would exhaust the stream; refuse it before allocating.
	if plen*8 < 64 || count-1 > plen*8-64 {
		return nil, nil, corruptf("value count %d exceeds payload of %d bytes", count, plen)
	}
	r := newBitReader(b[:plen])
	rest := b[plen:]
	prev, err := r.readBits(64)
	if err != nil {
		return nil, nil, err
	}
	dst = slices.Grow(dst, int(count))
	vs := dst[len(dst) : len(dst)+int(count)]
	vs[0] = math.Float64frombits(prev)
	var leading, trailing uint
	for i := 1; i < len(vs); i++ {
		// 13 bits: the longest control-and-header prefix, '11' + 5 + 6.
		if r.n < 13 {
			r.refill()
		}
		switch {
		case r.acc>>63 == 0: // '0': same as previous
			if r.n < 1 {
				return nil, nil, r.exhausted()
			}
			r.consume(1)
			vs[i] = vs[i-1]
			continue
		case r.acc>>62 == 0b10: // '10': fits the previous window
			if r.n < 2 {
				return nil, nil, r.exhausted()
			}
			r.consume(2)
		default: // '11': new window
			if r.n < 13 {
				return nil, nil, r.exhausted()
			}
			hdr := uint(r.acc >> 51)
			r.consume(13)
			leading = hdr >> 6 & 31
			n := hdr&63 + 1
			if leading+n > 64 {
				return nil, nil, corruptf("window leading=%d sig=%d", leading, n)
			}
			trailing = 64 - leading - n
		}
		sig, err := r.readBits(64 - leading - trailing)
		if err != nil {
			return nil, nil, err
		}
		prev ^= sig << trailing
		vs[i] = math.Float64frombits(prev)
	}
	return dst[:len(dst)+int(count)], rest, nil
}
