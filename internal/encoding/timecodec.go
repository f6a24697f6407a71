package encoding

// Delta-of-delta timestamp codec (the analogue of IoTDB's TS_2DIFF and of
// Gorilla's timestamp scheme). Sensor timestamps arrive at a nearly fixed
// frequency, so consecutive deltas are nearly equal and the second
// difference is almost always zero; it compresses to about one bit per
// point on regular data while still handling arbitrary gaps.
//
// Layout:
//
//	uvarint count
//	varint  t0            (absent when count == 0)
//	varint  delta0        (absent when count < 2)
//	count-2 zigzag-varint delta-of-deltas

// EncodeTimes appends the encoded form of ts to dst. Timestamps must be in
// increasing order (not enforced here; chunk writers validate).
func EncodeTimes(dst []byte, ts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(ts)))
	if len(ts) == 0 {
		return dst
	}
	dst = AppendVarint(dst, ts[0])
	if len(ts) == 1 {
		return dst
	}
	prevDelta := ts[1] - ts[0]
	dst = AppendVarint(dst, prevDelta)
	for i := 2; i < len(ts); i++ {
		delta := ts[i] - ts[i-1]
		dst = AppendVarint(dst, delta-prevDelta)
		prevDelta = delta
	}
	return dst
}

// DecodeTimes decodes a block produced by EncodeTimes and returns the
// timestamps along with the remaining buffer.
func DecodeTimes(b []byte) ([]int64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	const maxCount = 1 << 31
	if count > maxCount {
		return nil, nil, corruptf("timestamp count %d too large", count)
	}
	// Every timestamp takes at least one byte, so a larger count would
	// exhaust the block; refuse it before allocating.
	if count > uint64(len(b)) {
		return nil, nil, corruptf("timestamp count %d exceeds block of %d bytes", count, len(b))
	}
	ts := make([]int64, count)
	if count == 0 {
		return ts, b, nil
	}
	t0, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	ts[0] = t0
	if count == 1 {
		return ts, b, nil
	}
	delta, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	ts[1] = t0 + delta
	for i := 2; i < len(ts); i++ {
		// On regular data the delta-of-delta is almost always 0: a
		// one-byte varint, decoded inline.
		if len(b) > 0 && b[0] < 0x80 {
			delta += UnZigZag(uint64(b[0]))
			b = b[1:]
		} else {
			dod, rest, err := Varint(b)
			if err != nil {
				return nil, nil, err
			}
			delta += dod
			b = rest
		}
		ts[i] = ts[i-1] + delta
	}
	return ts, b, nil
}
