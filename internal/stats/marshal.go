package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary round-tripping for the three sample accumulators, so component
// Stats structs that embed them travel inside a checkpoint: the
// checkpoint body's codec cannot see unexported fields, and hands each
// accumulator to these methods instead. AppendBinary has the signature
// of encoding.BinaryAppender, so the codec appends into the body it is
// building and no accumulator allocates a buffer of its own.
// Fixed-width little-endian words; a float64 travels as its IEEE 754
// bits, so NaN payloads, infinities and the sign of zero survive and a
// restored mean is bit-identical. Input of the wrong length is an
// error, never a panic: the bytes come off a disk.

// AppendBinary appends the counter's full state to b.
func (c Counter) AppendBinary(b []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(b, c.n), nil
}

// UnmarshalBinary restores the counter's full state.
func (c *Counter) UnmarshalBinary(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("stats: counter is 8 bytes, got %d", len(b))
	}
	c.n = binary.LittleEndian.Uint64(b)
	return nil
}

// AppendBinary appends the mean's full state to b.
func (m Mean) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.sum))
	return binary.LittleEndian.AppendUint64(b, m.n), nil
}

// UnmarshalBinary restores the mean's full state.
func (m *Mean) UnmarshalBinary(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("stats: mean is 16 bytes, got %d", len(b))
	}
	m.sum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	m.n = binary.LittleEndian.Uint64(b[8:])
	return nil
}

// histogramFixed is the encoded size of a histogram's sum, n and max;
// the buckets follow, eight bytes each.
const histogramFixed = 24

// AppendBinary appends the histogram's full state, bucket layout
// included, to b.
func (h *Histogram) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.sum))
	b = binary.LittleEndian.AppendUint64(b, h.n)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.max))
	for _, c := range h.buckets {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	return b, nil
}

// UnmarshalBinary restores the histogram's full state. The bucket count
// comes from the encoded form, so the restored histogram clamps
// out-of-range samples exactly as the original did, and a histogram
// with no buckets is refused (Observe indexes the last one).
func (h *Histogram) UnmarshalBinary(b []byte) error {
	if len(b) <= histogramFixed || (len(b)-histogramFixed)%8 != 0 {
		return fmt.Errorf("stats: histogram is %d bytes plus 8 per bucket, at least one bucket; got %d", histogramFixed, len(b))
	}
	h.sum = math.Float64frombits(binary.LittleEndian.Uint64(b))
	h.n = binary.LittleEndian.Uint64(b[8:])
	h.max = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	h.buckets = make([]uint64, (len(b)-histogramFixed)/8)
	for i := range h.buckets {
		h.buckets[i] = binary.LittleEndian.Uint64(b[histogramFixed+8*i:])
	}
	return nil
}

// Clone returns an independent deep copy of the histogram (nil in,
// nil out). Snapshots clone so later Observe calls on the live
// histogram cannot mutate checkpointed state.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return &c
}
