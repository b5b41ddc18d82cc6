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

// BenchmarkLocalSort measures the local sort at the benchmark's per-VP
// size (2²² keys over v = 16): the radix kernel's two entry points —
// sortKeys in place on a fresh copy of the keys, sortedInto as Init calls
// it, into a buffer the runtime lends — against slices.Sort. Both entry
// points must report 0 allocs/op.
func BenchmarkLocalSort(b *testing.B) {
	keys := workload.Int64s(1, 1<<18)
	xs := make([]int64, len(keys))
	for _, bc := range []struct {
		name string
		op   func()
	}{
		{"radix", func() { copy(xs, keys); sortKeys(xs) }},
		{"sortedInto", func() { sortedInto(xs, keys) }},
		{"slices.Sort", func() { copy(xs, keys); slices.Sort(xs) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}

// BenchmarkPSRSRounds splits Sorter's local work by superstep at the
// benchmark's per-VP size: 2²² keys over v = 16, so 2¹⁸ a VP. Each op is
// one VP's compute in one round (times 16 is the round's share of sort_mem
// on one core): init+r0 is Init and round 0 on VP 0's partition, r1 is
// round 1 on VP 0's sorted partition and the samples of all sixteen, r2
// is round 2 on the buckets a real round 1 of all sixteen sent VP 0.
func BenchmarkPSRSRounds(b *testing.B) {
	const n, v = 1 << 22, 16
	parts := cgm.Scatter(workload.Int64s(1, n), v)
	var s Sorter[int64]
	sorted := make([][]int64, v)
	samples := make([][]int64, v)
	for j := range parts {
		vp := &cgm.VP[int64]{ID: j, V: v}
		s.Init(vp, parts[j])
		out, _ := s.Round(vp, 0, nil)
		sorted[j], samples[j] = vp.State, out[0]
	}
	inbox := make([][]int64, v)
	for j := range sorted {
		vp := &cgm.VP[int64]{ID: j, V: v, State: slices.Clone(sorted[j])}
		out, _ := s.Round(vp, 1, samples)
		inbox[j] = slices.Clone(out[0])
	}
	b.Run("init+r0", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vp := &cgm.VP[int64]{V: v}
			s.Init(vp, parts[0])
			s.Round(vp, 0, nil)
		}
	})
	b.Run("r1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Round(&cgm.VP[int64]{V: v, State: sorted[0]}, 1, samples)
		}
	})
	b.Run("r2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Round(&cgm.VP[int64]{V: v}, 2, inbox)
		}
	})
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
