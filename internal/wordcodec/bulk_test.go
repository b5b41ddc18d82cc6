package wordcodec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pdm"
)

// checkBulk asserts that a codec's bulk fast paths are bit-identical to
// the per-item Encode/Decode loop: same encoded words, and a decode of
// those words that re-encodes to the same image. This is the contract the
// BulkCodec doc comment demands of every implementation.
func checkBulk[T any](t *testing.T, name string, c Codec[T], items []T) {
	t.Helper()
	w := c.Words()
	n := len(items)

	ref := make([]pdm.Word, n*w)
	for i, v := range items {
		c.Encode(ref[i*w:(i+1)*w], v)
	}

	bulk := make([]pdm.Word, n*w)
	for i := range bulk {
		bulk[i] = ^pdm.Word(0) // poison: every word must be overwritten
	}
	EncodeInto(c, bulk, items)
	for i := range ref {
		if bulk[i] != ref[i] {
			t.Fatalf("%s: EncodeInto word %d = %#x, per-item Encode wrote %#x", name, i, bulk[i], ref[i])
		}
	}

	// Decode both ways and compare via re-encoding (T may not be
	// comparable — Words items are slices).
	perItem := make([]T, n)
	for i := 0; i < n; i++ {
		perItem[i] = c.Decode(ref[i*w : (i+1)*w])
	}
	bulkDec := make([]T, n)
	DecodeInto(c, bulkDec, ref)

	re1 := make([]pdm.Word, n*w)
	re2 := make([]pdm.Word, n*w)
	for i := 0; i < n; i++ {
		c.Encode(re1[i*w:(i+1)*w], perItem[i])
		c.Encode(re2[i*w:(i+1)*w], bulkDec[i])
	}
	for i := range re1 {
		if re1[i] != re2[i] {
			t.Fatalf("%s: DecodeSliceInto item diverges from per-item Decode at word %d: %#x vs %#x",
				name, i, re2[i], re1[i])
		}
	}
}

// TestBulkCodecRoundTrip property-tests every shipped codec: the bulk
// fast paths must round-trip bit-identically with the per-item loop on
// random inputs, including edge words (0, all-ones, NaN bit patterns).
func TestBulkCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(65) // includes the empty slice

		u := make([]uint64, n)
		i64 := make([]int64, n)
		f := make([]float64, n)
		pairs := make([]Pair[uint64, int64], n)
		nested := make([]Pair[float64, Pair[uint64, int64]], n)
		vecs := make([][]pdm.Word, n)
		for k := 0; k < n; k++ {
			u[k] = rng.Uint64()
			i64[k] = -rng.Int63()
			f[k] = math.Float64frombits(rng.Uint64()) // hits NaN/Inf/denormal patterns
			pairs[k] = Pair[uint64, int64]{A: rng.Uint64(), B: rng.Int63() - (1 << 62)}
			nested[k] = Pair[float64, Pair[uint64, int64]]{A: rng.NormFloat64(), B: pairs[k]}
			vecs[k] = []pdm.Word{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		if n > 0 {
			u[0], i64[0], f[0] = 0, 0, math.NaN()
			if n > 1 {
				u[1] = ^uint64(0)
			}
		}

		checkBulk(t, "U64", U64{}, u)
		checkBulk(t, "I64", I64{}, i64)
		checkBulk(t, "F64", F64{}, f)
		checkBulk(t, "PairCodec[U64,I64]", PairCodec[uint64, int64]{CA: U64{}, CB: I64{}}, pairs)
		checkBulk(t, "PairCodec nested",
			PairCodec[float64, Pair[uint64, int64]]{
				CA: F64{},
				CB: PairCodec[uint64, int64]{CA: U64{}, CB: I64{}},
			}, nested)
		checkBulk(t, "Words{3}", Words{N: 3}, vecs)
	}
}

// nonBulk wraps a codec while hiding its BulkCodec methods, forcing
// EncodeInto/DecodeInto down the per-item fallback path.
type nonBulk struct{ inner Codec[uint64] }

func (c nonBulk) Words() int                      { return c.inner.Words() }
func (c nonBulk) Encode(dst []pdm.Word, v uint64) { c.inner.Encode(dst, v) }
func (c nonBulk) Decode(src []pdm.Word) uint64    { return c.inner.Decode(src) }

// TestBulkFallback checks the generic fallback in EncodeInto/DecodeInto
// agrees with the fast path for a codec that opts out of BulkCodec.
func TestBulkFallback(t *testing.T) {
	items := []uint64{0, 1, ^uint64(0), 1 << 63}
	fast := make([]pdm.Word, len(items))
	slow := make([]pdm.Word, len(items))
	EncodeInto[uint64](U64{}, fast, items)
	EncodeInto[uint64](nonBulk{inner: U64{}}, slow, items)
	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("word %d: fast %#x, fallback %#x", i, fast[i], slow[i])
		}
	}
	out := make([]uint64, len(items))
	DecodeInto[uint64](nonBulk{inner: U64{}}, out, fast)
	for i := range out {
		if out[i] != items[i] {
			t.Fatalf("item %d: decoded %#x, want %#x", i, out[i], items[i])
		}
	}
}

// allocsOf reports what one EncodeInto and one DecodeInto of n items
// through c allocate.
func allocsOf[T any](c Codec[T], n int) (enc, dec float64) {
	items := make([]T, n)
	img := make([]pdm.Word, n*c.Words())
	enc = testing.AllocsPerRun(100, func() { EncodeInto(c, img, items) })
	dec = testing.AllocsPerRun(100, func() { DecodeInto(c, items, img) })
	return enc, dec
}

// TestCodecsAllocateNothing: the engine encodes and decodes every context
// and message through EncodeInto/DecodeInto, so a codec that allocates
// allocates per item of every transfer. Every shipped codec encodes
// without allocating, bulk path and per-item fallback alike, and decodes
// without allocating except Words, whose items are slices: one each.
func TestCodecsAllocateNothing(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name      string
		allocs    func() (enc, dec float64)
		decAllocs float64
	}{
		{"U64", func() (float64, float64) { return allocsOf[uint64](U64{}, n) }, 0},
		{"I64", func() (float64, float64) { return allocsOf[int64](I64{}, n) }, 0},
		{"F64", func() (float64, float64) { return allocsOf[float64](F64{}, n) }, 0},
		{"PairCodec[U64,I64]", func() (float64, float64) {
			return allocsOf[Pair[uint64, int64]](PairCodec[uint64, int64]{CA: U64{}, CB: I64{}}, n)
		}, 0},
		{"PairCodec nested", func() (float64, float64) {
			return allocsOf[Pair[float64, Pair[uint64, int64]]](PairCodec[float64, Pair[uint64, int64]]{
				CA: F64{}, CB: PairCodec[uint64, int64]{CA: U64{}, CB: I64{}}}, n)
		}, 0},
		{"fallback", func() (float64, float64) { return allocsOf[uint64](nonBulk{inner: U64{}}, n) }, 0},
		{"Words{3}", func() (float64, float64) { return allocsOf[[]pdm.Word](Words{N: 3}, n) }, n},
	} {
		enc, dec := tc.allocs()
		if enc != 0 {
			t.Errorf("%s: EncodeInto of %d items made %v allocations, want 0", tc.name, n, enc)
		}
		if dec != tc.decAllocs {
			t.Errorf("%s: DecodeInto of %d items made %v allocations, want %v", tc.name, n, dec, tc.decAllocs)
		}
	}
}
