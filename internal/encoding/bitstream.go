// Package encoding implements the column codecs used inside chunk files:
// zigzag varints, a delta-of-delta timestamp codec (the analogue of IoTDB's
// TS_2DIFF), a Gorilla XOR codec for float64 values, and plain fallbacks.
//
// The decode cost of these codecs is part of what the paper's baseline pays
// when it loads and merges whole chunks, so the codecs are real, not stubs.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a malformed encoded block.
var ErrCorrupt = errors.New("encoding: corrupt block")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// bitWriter appends bits and bit fields to a byte buffer, most-significant
// bit first. Bits collect in acc and each byte is appended once it is whole.
type bitWriter struct {
	buf []byte
	acc uint64 // the low n bits are pending, oldest first
	n   uint   // pending bits, below 8 between calls
}

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit uint64) { w.put(bit, 1) }

// writeBits appends the low n bits of v, most significant first. n ≤ 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n > 56 {
		// acc holds at most 7 pending bits, so 57 more would overflow it.
		w.put(v>>32, n-32)
		v, n = v&(1<<32-1), 32
	}
	w.put(v, n)
}

// put appends the low n bits of v. n ≤ 56.
func (w *bitWriter) put(v uint64, n uint) {
	w.acc = w.acc<<n | v&(1<<n-1)
	w.n += n
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// bytes returns the encoded buffer, its last byte padded with zero bits.
func (w *bitWriter) bytes() []byte {
	if w.n == 0 {
		return w.buf
	}
	return append(w.buf, byte(w.acc<<(8-w.n)))
}

// bitReader consumes bits written by bitWriter. Up to 64 unread bits sit
// left-aligned in acc, and every bit below the n valid ones is zero, so a
// caller may peek at acc and then check n before consuming. refill moves
// whole bytes from buf into acc, eight at a time while eight remain.
type bitReader struct {
	buf  []byte // bytes not yet moved into acc
	acc  uint64 // unread bits, most significant first
	n    uint   // valid bits in acc
	size int    // stream length in bytes, for error messages
}

func newBitReader(b []byte) *bitReader { return &bitReader{buf: b, size: len(b)} }

// refill tops acc up to at least 57 valid bits, or to every remaining bit
// at the end of the stream.
func (r *bitReader) refill() {
	if r.n > 56 {
		return
	}
	if len(r.buf) >= 8 {
		k := (64 - r.n) / 8 // whole bytes that fit
		word := binary.BigEndian.Uint64(r.buf) >> (64 - 8*k)
		r.acc |= word << (64 - 8*k - r.n)
		r.n += 8 * k
		r.buf = r.buf[k:]
		return
	}
	for r.n <= 56 && len(r.buf) > 0 {
		r.acc |= uint64(r.buf[0]) << (56 - r.n)
		r.n += 8
		r.buf = r.buf[1:]
	}
}

// consume drops k ≤ n bits from the front of acc.
func (r *bitReader) consume(k uint) {
	r.acc <<= k
	r.n -= k
}

// exhausted is the error for a read past the end of the stream.
func (r *bitReader) exhausted() error {
	return corruptf("bit stream exhausted at byte %d", r.size-len(r.buf)-int(r.n/8))
}

// readBit returns the next bit.
func (r *bitReader) readBit() (uint64, error) { return r.readBits(1) }

// readBits returns the next n bits (n ≤ 64) as the low bits of a uint64.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if n > r.n {
		return r.readBitsSlow(n)
	}
	v := r.acc >> (64 - n)
	r.consume(n)
	return v, nil
}

// readBitsSlow is readBits with a refill first. It is kept out of
// readBits, and calls only itself, so that readBits stays inlinable.
func (r *bitReader) readBitsSlow(n uint) (uint64, error) {
	if n > 56 {
		// A refill guarantees only 57 bits: read the field in two halves.
		hi, err := r.readBitsSlow(n - 32)
		if err != nil {
			return 0, err
		}
		lo, err := r.readBitsSlow(32)
		if err != nil {
			return 0, err
		}
		return hi<<32 | lo, nil
	}
	r.refill()
	if n > r.n {
		return 0, r.exhausted()
	}
	v := r.acc >> (64 - n)
	r.consume(n)
	return v, nil
}
