package encoding

import (
	"math"
	"math/bits"
)

// The oracle is the bit-at-a-time Gorilla bitstream and the timestamp
// decoder as they were before the word-at-a-time rewrite. It is kept only
// as a reference: the differential fuzz targets and the format tests hold
// the production codecs to it byte for byte and bit for bit. Its logic must
// not change. The one liberty taken is the decoders' capacity hint, clamped
// so that a fuzzed count cannot reserve gigabytes before the stream runs
// dry; append grows the slice exactly as before.

const oracleMaxHint = 1 << 16

type oracleBitWriter struct {
	buf  []byte
	nbit uint8
}

func (w *oracleBitWriter) writeBit(bit uint64) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
	}
	if bit != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit)
	}
	w.nbit = (w.nbit + 1) & 7
}

func (w *oracleBitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

type oracleBitReader struct {
	buf []byte
	pos int
	bit uint8
}

func (r *oracleBitReader) readBit() (uint64, error) {
	if r.pos >= len(r.buf) {
		return 0, corruptf("bit stream exhausted at byte %d", r.pos)
	}
	bit := uint64(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return bit, nil
}

func (r *oracleBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | bit
	}
	return v, nil
}

func oracleEncodeValues(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	if len(vs) == 0 {
		return dst
	}
	w := oracleBitWriter{}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	leading, trailing := uint(65), uint(0)
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
			lz = 31
		}
		if leading <= 64 && lz >= leading && tz >= trailing {
			w.writeBit(0)
			n := 64 - leading - trailing
			w.writeBits(xor>>trailing, n)
			continue
		}
		leading, trailing = lz, tz
		n := 64 - leading - trailing
		w.writeBit(1)
		w.writeBits(uint64(leading), 5)
		w.writeBits(uint64(n-1), 6)
		w.writeBits(xor>>trailing, n)
	}
	payload := w.buf
	dst = AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

func oracleDecodeValues(b []byte) ([]float64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	const maxCount = 1 << 31
	if count > maxCount {
		return nil, nil, corruptf("value count %d too large", count)
	}
	vs := make([]float64, 0, min(count, oracleMaxHint))
	if count == 0 {
		return vs, b, nil
	}
	plen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if plen > uint64(len(b)) {
		return nil, nil, corruptf("value payload %d exceeds buffer %d", plen, len(b))
	}
	r := &oracleBitReader{buf: b[:plen]}
	rest := b[plen:]
	first, err := r.readBits(64)
	if err != nil {
		return nil, nil, err
	}
	prev := first
	vs = append(vs, math.Float64frombits(prev))
	var leading, trailing uint
	for uint64(len(vs)) < count {
		ctl, err := r.readBit()
		if err != nil {
			return nil, nil, err
		}
		if ctl == 0 {
			vs = append(vs, math.Float64frombits(prev))
			continue
		}
		ctl, err = r.readBit()
		if err != nil {
			return nil, nil, err
		}
		if ctl == 1 {
			lz, err := r.readBits(5)
			if err != nil {
				return nil, nil, err
			}
			nm1, err := r.readBits(6)
			if err != nil {
				return nil, nil, err
			}
			leading = uint(lz)
			n := uint(nm1) + 1
			if leading+n > 64 {
				return nil, nil, corruptf("window leading=%d sig=%d", leading, n)
			}
			trailing = 64 - leading - n
		}
		n := 64 - leading - trailing
		sig, err := r.readBits(n)
		if err != nil {
			return nil, nil, err
		}
		prev ^= sig << trailing
		vs = append(vs, math.Float64frombits(prev))
	}
	return vs, rest, nil
}

func oracleDecodeTimes(b []byte) ([]int64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	const maxCount = 1 << 31
	if count > maxCount {
		return nil, nil, corruptf("timestamp count %d too large", count)
	}
	ts := make([]int64, 0, min(count, oracleMaxHint))
	if count == 0 {
		return ts, b, nil
	}
	t0, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	ts = append(ts, t0)
	if count == 1 {
		return ts, b, nil
	}
	delta, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	ts = append(ts, t0+delta)
	for uint64(len(ts)) < count {
		dod, rest, err := Varint(b)
		if err != nil {
			return nil, nil, err
		}
		b = rest
		delta += dod
		ts = append(ts, ts[len(ts)-1]+delta)
	}
	return ts, b, nil
}
