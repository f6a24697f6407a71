package encoding

import (
	"encoding/binary"
	"math"
	"slices"
)

// Plain codecs store 8 bytes per element. They exist as the uncompressed
// baseline for the codec ablation bench and as a debugging aid.

// EncodeTimesPlain appends count + raw little-endian timestamps.
func EncodeTimesPlain(dst []byte, ts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	}
	return dst
}

// DecodeTimesPlain decodes a block produced by EncodeTimesPlain.
func DecodeTimesPlain(b []byte) ([]int64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b))/8 < count {
		return nil, nil, corruptf("plain timestamp block short: need %d timestamps, have %d bytes", count, len(b))
	}
	ts := make([]int64, count)
	for i := range ts {
		ts[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return ts, b[count*8:], nil
}

// EncodeValuesPlain appends count + raw little-endian float64 bits.
func EncodeValuesPlain(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeValuesPlain decodes a block produced by EncodeValuesPlain.
func DecodeValuesPlain(b []byte) ([]float64, []byte, error) { return appendValuesPlain(nil, b) }

// appendValuesPlain is DecodeValuesPlain appending to dst.
func appendValuesPlain(dst []float64, b []byte) ([]float64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b))/8 < count {
		return nil, nil, corruptf("plain value block short: need %d values, have %d bytes", count, len(b))
	}
	dst = slices.Grow(dst, int(count))
	for i := 0; i < int(count); i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return dst, b[count*8:], nil
}
