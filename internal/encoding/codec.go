package encoding

// Codec selects the pair of timestamp/value encodings used by a chunk. The
// codec id is stored in the chunk header so files remain self-describing.
type Codec uint8

const (
	// CodecGorilla: delta-of-delta timestamps + Gorilla XOR values. Default.
	CodecGorilla Codec = 0
	// CodecPlain: raw 8-byte timestamps and values.
	CodecPlain Codec = 1
)

// Valid reports whether c names a known codec.
func (c Codec) Valid() bool { return c == CodecGorilla || c == CodecPlain }

// String names the codec for diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecGorilla:
		return "gorilla"
	case CodecPlain:
		return "plain"
	default:
		return "unknown"
	}
}

// EncodeTimesWith dispatches to the codec's timestamp encoder.
func (c Codec) EncodeTimesWith(dst []byte, ts []int64) []byte {
	if c == CodecPlain {
		return EncodeTimesPlain(dst, ts)
	}
	return EncodeTimes(dst, ts)
}

// DecodeTimesWith dispatches to the codec's timestamp decoder.
func (c Codec) DecodeTimesWith(b []byte) ([]int64, []byte, error) {
	if c == CodecPlain {
		return DecodeTimesPlain(b)
	}
	return DecodeTimes(b)
}

// EncodeValuesWith dispatches to the codec's value encoder.
func (c Codec) EncodeValuesWith(dst []byte, vs []float64) []byte {
	if c == CodecPlain {
		return EncodeValuesPlain(dst, vs)
	}
	return EncodeValues(dst, vs)
}

// AppendValuesWith dispatches to the codec's value decoder, appending the
// decoded values to dst.
func (c Codec) AppendValuesWith(dst []float64, b []byte) ([]float64, []byte, error) {
	if c == CodecPlain {
		return appendValuesPlain(dst, b)
	}
	return appendValues(dst, b)
}
