package permute_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/permute"
	"repro/internal/transpose"
	"repro/internal/workload"
)

// allocBytes is the heap bytes f allocates, after a collection.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeliveryAllocation holds the in-place delivery to what it saves: the
// last round places into lent scratch and each VP writes its values
// straight into the result, so a wrapper allocates its input partitions
// (16 bytes an item), the result (8), the disk images (about 48: a context
// and two message rects of two words an item) and the arena, but no
// output partition (16 more) and no projection. The arena is one
// worker's: K = 1 pins c = 1 on any host. The permutation allocates about
// 81 bytes an item and the transposition, whose Init tags a copy of its
// partition, about 87; each bound lies halfway to the 16 bytes more that
// round 1's partitions cost.
func TestDeliveryAllocation(t *testing.T) {
	const n, v = 1 << 16, 8
	vals := workload.Int64s(1, n)
	dests := workload.Permutation(2, n)
	cfg := core.Config{V: v, P: 1, D: 2, B: 64, PipelineDepth: 1}
	for _, tc := range []struct {
		name  string
		bound float64 // bytes an item
		run   func() error
	}{
		{"permute", 88, func() error {
			_, _, err := permute.EMPermute(vals, dests, cfg)
			return err
		}},
		{"transpose", 95, func() error {
			_, _, err := transpose.EMTranspose(vals, 256, n/256, cfg)
			return err
		}},
	} {
		if err := tc.run(); err != nil { // warm the runtime's one-off allocations
			t.Fatalf("%s: %v", tc.name, err)
		}
		var err error
		got := float64(allocBytes(func() { err = tc.run() })) / n
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got > tc.bound {
			t.Errorf("%s: %.1f bytes allocated an item, want at most %.0f: an output partition or a projection is back", tc.name, got, tc.bound)
		}
	}
}

// TestDeliveryCheckedIO runs both wrappers against Sequential where a late
// read of the arena would show: CheckedIO zeroes it at release, so a
// delivery that read a VP's partition after its worker moved on would
// write zeros. Every depth, one and two processors, and Balanced.
func TestDeliveryCheckedIO(t *testing.T) {
	const n, v, k = 1 << 12, 8, 64
	vals := workload.Int64s(3, n)
	for i := range vals {
		vals[i] |= 1 // no zero value, so a zero read cannot pass
	}
	dests := workload.Permutation(4, n)
	wantP := permute.Sequential(vals, dests)
	wantT := transpose.Sequential(vals, k, n/k)
	for _, p := range []int{1, 2} {
		for _, depth := range []int{1, 2, 0} {
			for _, bal := range []bool{false, true} {
				tag := fmt.Sprintf("p=%d k=%d balanced=%v", p, depth, bal)
				cfg := core.Config{V: v, P: p, D: 2, B: 16, PipelineDepth: depth, CheckedIO: true, Balanced: bal}
				got, res, err := permute.EMPermute(vals, dests, cfg)
				if err != nil {
					t.Fatalf("permute %s: %v", tag, err)
				}
				if !slices.Equal(got, wantP) {
					t.Errorf("permute %s: output differs from Sequential", tag)
				}
				for j, o := range res.Outputs {
					if len(o) != 0 {
						t.Errorf("permute %s: vp %d left %d items in Outputs, want none", tag, j, len(o))
					}
				}
				got, _, err = transpose.EMTranspose(vals, k, n/k, cfg)
				if err != nil {
					t.Fatalf("transpose %s: %v", tag, err)
				}
				if !slices.Equal(got, wantT) {
					t.Errorf("transpose %s: output differs from Sequential", tag)
				}
			}
		}
	}
}

// TestEMPermuteRejectsNonPermutation: a destination outside [0, n) or one
// that repeats is an error, not a vector with a value lost and a slot
// left zero.
func TestEMPermuteRejectsNonPermutation(t *testing.T) {
	const n = 64
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		name string
		at   int
		dest int64
		want string
	}{
		{"dest n", 7, n, "Owner"},
		{"dest -1", 40, -1, "Owner"},
		{"repeated", 63, 62, "repeated"},
		{"repeated across VPs", 0, 63, "repeated"},
		{"repeated zero", 5, 0, "repeated"},
	} {
		for _, p := range []int{1, 2} {
			dests := make([]int64, n)
			for i := range dests {
				dests[i] = int64(i)
			}
			dests[tc.at] = tc.dest
			tag := fmt.Sprintf("%s p=%d", tc.name, p)
			out, _, err := permute.EMPermute(vals, dests, core.Config{V: 4, P: p, D: 1, B: 4})
			if err == nil {
				t.Errorf("%s: no error, output %v", tag, out)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want it to mention %q", tag, err, tc.want)
			}
		}
	}
}
