package sortalg

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/pdm"
)

// radixSizes straddle the insertion cut-off (64) and lsdFinish's (2048),
// and reach several levels: 1<<18 is a VP's share of the benchmark sort,
// whose top-byte buckets lsdFinish takes whole.
var radixSizes = []int{0, 1, 2, 63, 64, 65, 1000, 2048, 2049, 1 << 16, 1 << 18}

// keyPatterns generates n keys as 64-bit patterns; for a signed type the
// high byte is the sign byte.
var keyPatterns = map[string]func(r *rand.Rand, n int) []uint64{
	"random": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return r.Uint64() })
	},
	"allEqual": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return 0x0123_4567_89ab_cdef })
	},
	"sorted": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(i int) uint64 { return uint64(i) * 0x9e37_79b9 })
	},
	"reversed": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(i int) uint64 { return uint64(n-i) * 0x9e37_79b9 })
	},
	"fewDistinct": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return uint64(r.Intn(3)) * 0x5555_5555_5555_5555 })
	},
	"lowByteOnly": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return 0xdead_beef_0000_0000 | uint64(r.Intn(256)) })
	},
	"highByteOnly": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return 0x00be_efca_fe00_1234 | uint64(r.Intn(256))<<56 })
	},
	// Every bucket of the top byte ties on bits 40–55, lsdFinish's two
	// digits below it, so its tie pass recurses at shift 32.
	"midTie": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return r.Uint64()&0xff00_00ff_ffff_ffff | 0x005a_5a00_0000_0000 })
	},
	// Narrow keys: lsdFinish runs at the low shifts, down to 8.
	"narrow24": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return 0x0bad_cafe_0000_0000 | r.Uint64()&0xff_ffff })
	},
	"narrow12": func(r *rand.Rand, n int) []uint64 {
		return fill(n, func(int) uint64 { return 0x0bad_cafe_0000_0000 | r.Uint64()&0xfff })
	},
	"extremes": func(r *rand.Rand, n int) []uint64 {
		ext := []uint64{1 << 63, 1<<63 - 1, 0, math.MaxUint64} // MinInt64, MaxInt64, 0, −1
		return fill(n, func(int) uint64 { return ext[r.Intn(len(ext))] })
	},
}

func fill(n int, f func(i int) uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// checkSortKeys sorts every pattern at every size through sortKeys and
// compares against slices.Sort.
func checkSortKeys[T integer](t *testing.T) {
	t.Helper()
	for name, gen := range keyPatterns {
		for _, n := range radixSizes {
			pattern := gen(rand.New(rand.NewSource(int64(n))), n)
			got := make([]T, n)
			for i, u := range pattern {
				got[i] = T(u)
			}
			want := slices.Clone(got)
			slices.Sort(want)
			sortKeys(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: differs from slices.Sort", name, n)
			}
		}
	}
}

func TestSortKeysMatchesSlicesSort(t *testing.T) {
	t.Run("int64", checkSortKeys[int64])
	t.Run("uint64", checkSortKeys[uint64])
	t.Run("int", checkSortKeys[int])
}

// Types without a radix order go to slices.Sort: NaNs first, as it puts them.
func TestSortKeysFallsBack(t *testing.T) {
	fs := []float64{3, math.NaN(), -1, math.Inf(1), 0, math.NaN(), math.Inf(-1)}
	want := slices.Clone(fs)
	slices.Sort(want)
	sortKeys(fs)
	for i := range want {
		if math.Float64bits(fs[i]) != math.Float64bits(want[i]) {
			t.Fatalf("floats: %v, want %v", fs, want)
		}
	}
	ss := []string{"b", "", "ab", "a"}
	sortKeys(ss)
	if !slices.IsSorted(ss) {
		t.Fatalf("strings: %v", ss)
	}
}

// checkSortedCopy runs sortedInto over every pattern at every size, keys
// made from the patterns by conv, into a dst that holds garbage — the keys
// of another pattern, as a lent buffer holds what its last borrower left:
// src must be left as it was, dst must equal slices.Sorted, and the copy
// must allocate nothing.
func checkSortedCopy[T cmp.Ordered](conv func(uint64) T) func(*testing.T) {
	return func(t *testing.T) {
		for name, gen := range keyPatterns {
			for _, n := range radixSizes {
				src := make([]T, n)
				for i, u := range gen(rand.New(rand.NewSource(int64(n))), n) {
					src[i] = conv(u)
				}
				orig := slices.Clone(src)
				got := make([]T, n)
				for i := range got {
					got[i] = conv(uint64(i)*0x9E3779B97F4A7C15 ^ 0xFFFF_0000_0000_FFFF)
				}
				sortedInto(got, src)
				if !slices.EqualFunc(src, orig, func(a, b T) bool { return cmp.Compare(a, b) == 0 }) {
					t.Fatalf("%s n=%d: src changed", name, n)
				}
				want := slices.Clone(orig)
				slices.Sort(want)
				if !slices.EqualFunc(got, want, func(a, b T) bool { return cmp.Compare(a, b) == 0 }) {
					t.Fatalf("%s n=%d: differs from slices.Sorted", name, n)
				}
				if a := allocsPerRun(3, func() { sortedInto(got, src) }); a != 0 {
					t.Fatalf("%s n=%d: %v allocations, want 0", name, n, a)
				}
			}
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with the collector off: a cycle
// that a large result starts lets the runtime's own goroutines allocate
// inside the window, and those would count against f. With no cycle the
// count is exact, so a few runs suffice.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

func TestSortedCopy(t *testing.T) {
	t.Run("int64", checkSortedCopy(func(u uint64) int64 { return int64(u) }))
	t.Run("uint64", checkSortedCopy(func(u uint64) uint64 { return u }))
	t.Run("int", checkSortedCopy(func(u uint64) int { return int(u) }))
	t.Run("float64", checkSortedCopy(math.Float64frombits))
}

// checkRecords holds the record path: keys (first words) come out in
// order and every record survives whole.
func checkRecords(t *testing.T, tag string, got, in []pdm.Word, w int) {
	t.Helper()
	for i := w; i < len(got); i += w {
		if got[i] < got[i-w] {
			t.Fatalf("%s: key %d (%d) below key %d (%d)", tag, i/w, got[i], i/w-1, got[i-w])
		}
	}
	if !slices.Equal(sortedRecords(got, w), sortedRecords(in, w)) {
		t.Fatalf("%s: the records changed", tag)
	}
}

// sortedRecords returns the records of w words in lexicographic order.
func sortedRecords(ws []pdm.Word, w int) []pdm.Word {
	recs := make([][]pdm.Word, 0, len(ws)/w)
	for i := 0; i < len(ws); i += w {
		recs = append(recs, ws[i:i+w])
	}
	slices.SortFunc(recs, slices.Compare[[]pdm.Word])
	return slices.Concat(recs...)
}

func TestRadixRecords(t *testing.T) {
	for _, w := range []int{2, 3} {
		for name, gen := range keyPatterns {
			for _, n := range radixSizes {
				r := rand.New(rand.NewSource(int64(n * w)))
				keys := gen(r, n)
				in := make([]pdm.Word, n*w)
				for i, k := range keys {
					in[i*w] = k
					for j := 1; j < w; j++ {
						in[i*w+j] = r.Uint64() // payload
					}
				}
				got := slices.Clone(in)
				radixSort(got, w)
				checkRecords(t, name, got, in, w)
			}
		}
	}
}

// The kernel allocates nothing, on either path, nor does sortKeys' type
// switch.
func TestRadixAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	keys := fill(1<<16, func(int) uint64 { return r.Uint64() })
	i64 := make([]int64, len(keys))
	ints := make([]int, len(keys))
	words := make([]pdm.Word, len(keys))
	for name, f := range map[string]func(){
		"int64": func() {
			for i, k := range keys {
				i64[i] = int64(k)
			}
			sortKeys(i64)
		},
		"int": func() {
			for i, k := range keys {
				ints[i] = int(k)
			}
			sortKeys(ints)
		},
		"records w=2": func() {
			copy(words, keys)
			radixSort(words, 2)
		},
	} {
		if a := testing.AllocsPerRun(5, f); a != 0 {
			t.Errorf("%s: %v allocations per sort, want 0", name, a)
		}
	}
}

// FuzzSortKeys: arbitrary bytes read as 64-bit keys, repeated reps+1
// times (so short inputs reach the radix levels with duplicates), sorted
// as int64 and uint64 keys, copied sorted by sortedInto, and sorted as
// records of 1–3 words.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), math.MaxUint64), uint8(40), uint8(2))
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, reps, w8 uint8) {
		var words []uint64
		for r := 0; r <= int(reps); r++ {
			for i := 0; i+8 <= len(data); i += 8 {
				words = append(words, binary.LittleEndian.Uint64(data[i:])^uint64(r&3))
			}
		}
		i64 := make([]int64, len(words))
		for i, u := range words {
			i64[i] = int64(u)
		}
		want := slices.Clone(i64)
		slices.Sort(want)
		sortKeys(i64)
		if !slices.Equal(i64, want) {
			t.Fatalf("int64 keys differ from slices.Sort")
		}
		u64 := slices.Clone(words)
		wantU := slices.Clone(words)
		slices.Sort(wantU)
		sortKeys(u64)
		if !slices.Equal(u64, wantU) {
			t.Fatalf("uint64 keys differ from slices.Sort")
		}
		src := make([]int64, len(words))
		for i, u := range words {
			src[i] = int64(u)
		}
		orig := slices.Clone(src)
		copied := make([]int64, len(src))
		for i := range copied {
			copied[i] = int64(i) * -7 // garbage a lent dst may hold
		}
		sortedInto(copied, src)
		if !slices.Equal(src, orig) {
			t.Fatalf("sortedInto changed its source")
		}
		if !slices.Equal(copied, want) {
			t.Fatalf("sortedInto differs from slices.Sort")
		}
		w := int(w8)%3 + 1
		recs := words[:len(words)/w*w]
		got := slices.Clone(recs)
		radixSort(got, w)
		checkRecords(t, "fuzz", got, recs, w)
	})
}
