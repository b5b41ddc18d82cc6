package wordcodec

import (
	"math"

	"repro/internal/pdm"
)

// BulkCodec is an optional extension of Codec: codecs that can encode or
// decode a whole slice in one call, without per-item interface dispatch.
// The hot paths of the simulation (context and message serialisation)
// probe for it via EncodeInto/DecodeInto; a codec that does not implement
// it simply pays the per-item loop.
//
// Implementations must produce bit-identical words to the per-item
// Encode/Decode loop — the property tests in bulk_test.go enforce this
// for every shipped codec.
type BulkCodec[T any] interface {
	Codec[T]
	// EncodeSliceInto encodes items into dst, which must hold exactly
	// len(items)·Words() words.
	EncodeSliceInto(dst []pdm.Word, items []T)
	// DecodeSliceInto decodes len(dst) items from src (which must hold at
	// least len(dst)·Words() words) into dst.
	DecodeSliceInto(dst []T, src []pdm.Word)
}

// EncodeInto encodes items into dst (exactly len(items)·Words() words),
// using the codec's bulk fast path when it has one. It never allocates.
func EncodeInto[T any](c Codec[T], dst []pdm.Word, items []T) {
	if bc, ok := c.(BulkCodec[T]); ok {
		bc.EncodeSliceInto(dst, items)
		return
	}
	w := c.Words()
	for i, v := range items {
		c.Encode(dst[i*w:(i+1)*w], v)
	}
}

// DecodeInto decodes len(dst) items from src into dst, using the codec's
// bulk fast path when it has one. It allocates only what the codec's own
// Decode allocates (nothing, for the shipped fixed-width codecs except
// Words, whose items are themselves slices).
func DecodeInto[T any](c Codec[T], dst []T, src []pdm.Word) {
	if bc, ok := c.(BulkCodec[T]); ok {
		bc.DecodeSliceInto(dst, src)
		return
	}
	w := c.Words()
	for i := range dst {
		dst[i] = c.Decode(src[i*w : (i+1)*w])
	}
}

// EncodeSliceInto encodes items as one word-level copy: pdm.Word is an
// alias of uint64, so the item slice is the encoding.
func (U64) EncodeSliceInto(dst []pdm.Word, items []uint64) { copy(dst, items) }

// DecodeSliceInto decodes by copying words straight into the item slice.
func (U64) DecodeSliceInto(dst []uint64, src []pdm.Word) { copy(dst, src) }

// EncodeSliceInto bit-casts each item in a single non-dispatching loop.
func (I64) EncodeSliceInto(dst []pdm.Word, items []int64) {
	for i, v := range items {
		dst[i] = pdm.Word(v)
	}
}

// DecodeSliceInto bit-casts each word back.
func (I64) DecodeSliceInto(dst []int64, src []pdm.Word) {
	for i := range dst {
		dst[i] = int64(src[i])
	}
}

// EncodeSliceInto bit-casts each item in a single non-dispatching loop.
func (F64) EncodeSliceInto(dst []pdm.Word, items []float64) {
	for i, v := range items {
		dst[i] = math.Float64bits(v)
	}
}

// DecodeSliceInto bit-casts each word back.
func (F64) DecodeSliceInto(dst []float64, src []pdm.Word) {
	for i := range dst {
		dst[i] = math.Float64frombits(src[i])
	}
}

// EncodeSliceInto encodes the pairs with the field widths hoisted out of
// the loop, one bounds-checked window per field instead of a dispatched
// Encode per item.
func (c PairCodec[A, B]) EncodeSliceInto(dst []pdm.Word, items []Pair[A, B]) {
	wa, w := c.CA.Words(), c.Words()
	for i := range items {
		base := i * w
		c.CA.Encode(dst[base:base+wa], items[i].A)
		c.CB.Encode(dst[base+wa:base+w], items[i].B)
	}
}

// DecodeSliceInto is the decoding analogue of EncodeSliceInto.
func (c PairCodec[A, B]) DecodeSliceInto(dst []Pair[A, B], src []pdm.Word) {
	wa, w := c.CA.Words(), c.Words()
	for i := range dst {
		base := i * w
		dst[i] = Pair[A, B]{A: c.CA.Decode(src[base : base+wa]), B: c.CB.Decode(src[base+wa : base+w])}
	}
}

// EncodeSliceInto copies each fixed-width vector into place.
func (c Words) EncodeSliceInto(dst []pdm.Word, items [][]pdm.Word) {
	for i, v := range items {
		copy(dst[i*c.N:(i+1)*c.N], v)
	}
}

// DecodeSliceInto copies each vector out. Items are slices, so this is
// the one shipped codec whose decode necessarily allocates.
func (c Words) DecodeSliceInto(dst [][]pdm.Word, src []pdm.Word) {
	for i := range dst {
		out := make([]pdm.Word, c.N)
		copy(out, src[i*c.N:(i+1)*c.N])
		dst[i] = out
	}
}

var (
	_ BulkCodec[uint64]              = U64{}
	_ BulkCodec[int64]               = I64{}
	_ BulkCodec[float64]             = F64{}
	_ BulkCodec[Pair[uint64, int64]] = PairCodec[uint64, int64]{CA: U64{}, CB: I64{}}
	_ BulkCodec[[]pdm.Word]          = Words{}
)
