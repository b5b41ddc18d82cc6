package sortalg

import (
	"slices"
	"testing"

	"repro/internal/cgm"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// BenchmarkPSRSInMemory measures the CGM sort on the in-memory runtime.
func BenchmarkPSRSInMemory(b *testing.B) {
	b.ReportAllocs()
	const n, v = 1 << 16, 8
	keys := workload.Int64s(1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cgm.Run[int64](Sorter[int64]{}, v, cgm.Scatter(keys, v)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalSort measures the local sort of Sorter's round 0 at the
// benchmark's per-VP size (2²² keys over v = 16): the radix kernel
// against slices.Sort. Each iteration sorts a fresh copy of the same
// keys; the kernel must report 0 allocs/op.
func BenchmarkLocalSort(b *testing.B) {
	keys := workload.Int64s(1, 1<<18)
	xs := make([]int64, len(keys))
	for _, bc := range []struct {
		name string
		sort func([]int64)
	}{
		{"radix", sortKeys[int64]},
		{"slices.Sort", slices.Sort[[]int64]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(xs, keys)
				bc.sort(xs)
			}
		})
	}
}

// BenchmarkExternalMergeSort measures the PDM baseline.
func BenchmarkExternalMergeSort(b *testing.B) {
	b.ReportAllocs()
	const n = 1 << 16
	src := workload.Uint64s(2, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := pdm.NewMemArray(2, 512)
		recs := make([]pdm.Word, n)
		copy(recs, src)
		if _, _, err := MergeSort(arr, recs, 1, 8*1024); err != nil {
			b.Fatal(err)
		}
	}
}
