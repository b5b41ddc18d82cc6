// Package wordcodec defines fixed-size encodings of application items into
// 64-bit disk words.
//
// The PDM counts I/O in blocks of B items, so the simulation requires every
// item of a given algorithm to occupy a fixed number of words: block
// arithmetic stays exact and context/message serialization is
// deterministic. Each algorithm picks (or defines) a Codec for its item
// type; the EM-CGM machines are generic over it.
package wordcodec

import (
	"math"

	"repro/internal/pdm"
)

// Codec converts items of type T to and from a fixed number of words.
// Implementations must be stateless and safe for concurrent use.
type Codec[T any] interface {
	// Words returns the number of words occupied by one item (≥ 1).
	Words() int
	// Encode writes v into dst, which has length Words().
	Encode(dst []pdm.Word, v T)
	// Decode reads an item from src, which has length Words().
	Decode(src []pdm.Word) T
}

// EncodeSlice appends the encoding of items to dst and returns it. It
// grows dst at most once and encodes through the codec's bulk fast path
// when it has one (see BulkCodec).
func EncodeSlice[T any](c Codec[T], dst []pdm.Word, items []T) []pdm.Word {
	w := c.Words()
	off := len(dst)
	need := off + w*len(items)
	if cap(dst) >= need {
		dst = dst[:need]
	} else {
		grown := make([]pdm.Word, need)
		copy(grown, dst)
		dst = grown
	}
	EncodeInto(c, dst[off:], items)
	return dst
}

// DecodeSlice decodes n items from src (which must hold at least n·Words()
// words), appending to dst. It grows dst at most once and decodes through
// the codec's bulk fast path when it has one.
func DecodeSlice[T any](c Codec[T], dst []T, src []pdm.Word, n int) []T {
	off := len(dst)
	need := off + n
	if cap(dst) >= need {
		dst = dst[:need]
	} else {
		grown := make([]T, need)
		copy(grown, dst)
		dst = grown
	}
	DecodeInto(c, dst[off:], src)
	return dst
}

// U64 encodes uint64 items, one word each.
type U64 struct{}

// Words returns 1.
func (U64) Words() int { return 1 }

// Encode stores v.
func (U64) Encode(dst []pdm.Word, v uint64) { dst[0] = v }

// Decode loads v.
func (U64) Decode(src []pdm.Word) uint64 { return src[0] }

// I64 encodes int64 items, one word each (two's-complement bit cast).
type I64 struct{}

// Words returns 1.
func (I64) Words() int { return 1 }

// Encode stores v.
func (I64) Encode(dst []pdm.Word, v int64) { dst[0] = pdm.Word(v) }

// Decode loads v.
func (I64) Decode(src []pdm.Word) int64 { return int64(src[0]) }

// F64 encodes float64 items, one word each (IEEE-754 bit cast).
type F64 struct{}

// Words returns 1.
func (F64) Words() int { return 1 }

// Encode stores v.
func (F64) Encode(dst []pdm.Word, v float64) { dst[0] = math.Float64bits(v) }

// Decode loads v.
func (F64) Decode(src []pdm.Word) float64 { return math.Float64frombits(src[0]) }

// Pair is a generic two-field record; PairCodec encodes it in the two
// underlying codecs' widths.
type Pair[A, B any] struct {
	A A
	B B
}

// PairCodec composes codecs for the two fields of a Pair.
type PairCodec[A, B any] struct {
	CA Codec[A]
	CB Codec[B]
}

// Words returns the sum of the field widths.
func (c PairCodec[A, B]) Words() int { return c.CA.Words() + c.CB.Words() }

// Encode stores both fields.
func (c PairCodec[A, B]) Encode(dst []pdm.Word, v Pair[A, B]) {
	wa := c.CA.Words()
	c.CA.Encode(dst[:wa], v.A)
	c.CB.Encode(dst[wa:], v.B)
}

// Decode loads both fields.
func (c PairCodec[A, B]) Decode(src []pdm.Word) Pair[A, B] {
	wa := c.CA.Words()
	return Pair[A, B]{A: c.CA.Decode(src[:wa]), B: c.CB.Decode(src[wa:])}
}

// Words is a fixed-width codec for raw word vectors: items are []pdm.Word
// of exactly N words. It is the escape hatch for algorithm-specific record
// types that do not warrant a dedicated codec.
type Words struct{ N int }

// Words returns the configured width.
func (c Words) Words() int { return c.N }

// Encode copies the vector.
func (c Words) Encode(dst []pdm.Word, v []pdm.Word) { copy(dst, v) }

// Decode copies the vector out.
func (c Words) Decode(src []pdm.Word) []pdm.Word {
	out := make([]pdm.Word, c.N)
	copy(out, src)
	return out
}
