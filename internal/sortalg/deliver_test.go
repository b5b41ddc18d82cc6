package sortalg

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// adversarialKeys are the key patterns regular sampling meets at its
// worst: presorted runs, few or one distinct values, one value most keys
// share, and heavy skew.
func adversarialKeys(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(int64(n)))
	mostlyOne := make([]int64, n)
	for i := range mostlyOne {
		if rng.Intn(10) == 0 {
			mostlyOne[i] = rng.Int63()
		} else {
			mostlyOne[i] = 42
		}
	}
	organPipe := make([]int64, n)
	for i := range organPipe {
		organPipe[i] = int64(min(i, n-1-i))
	}
	return map[string][]int64{
		"sorted":    workload.SortedInt64s(n),
		"reversed":  workload.ReverseInt64s(n),
		"allEqual":  make([]int64, n),
		"twoValued": workload.FewDistinctInt64s(7, n, 2),
		"mostlyOne": mostlyOne,
		"organPipe": organPipe,
		"zipf":      workload.ZipfInt64s(9, n, 1000),
	}
}

// TestEMSortAdversarialKeys: balanced, EMSort sorts every adversarial
// pattern on one and two processors at ring depths 1, 2 and auto. The
// bucket cuts break ties by source VP and position, so a run of equal
// keys is cut where its samples were drawn instead of landing in one
// bucket, which overflowed BalancedRouting's slots in round 3.
// Unbalanced, well-spread keys sort, and presorted keys — whose buckets
// each go whole to one VP — are refused at the slot bound, never
// returned wrong.
func TestEMSortAdversarialKeys(t *testing.T) {
	const n, v = 1 << 14, 8
	for name, keys := range adversarialKeys(n) {
		want := slices.Clone(keys)
		slices.Sort(want)
		for _, p := range []int{1, 2} {
			for _, k := range []int{1, 2, 0} {
				tag := fmt.Sprintf("%s p=%d k=%d", name, p, k)
				cfg := core.Config{V: v, P: p, D: 2, B: 64, PipelineDepth: k, Balanced: true}
				got, _, err := EMSort(keys, wordcodec.I64{}, cfg)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: output differs from slices.Sort", tag)
				}
			}
		}
	}
	cfg := core.Config{V: v, P: 2, D: 2, B: 64}
	random := workload.Int64s(3, n)
	got, _, err := EMSort(random, wordcodec.I64{}, cfg)
	if err != nil {
		t.Fatalf("unbalanced random: %v", err)
	}
	checkSorted(t, "unbalanced random", got, random)
	if got, _, err := EMSort(workload.SortedInt64s(n), wordcodec.I64{}, cfg); err == nil || !strings.Contains(err.Error(), "slot bound") {
		t.Fatalf("unbalanced sorted: err = %v (%d items out), want the slot bound's error", err, len(got))
	}
}

// FuzzEMSortKeys: the bytes, stretched over 512 keys (each byte a run,
// so one byte is all-equal keys and rising bytes presorted ones) or
// repeated through them, must sort balanced on four VPs, and unbalanced
// either sort or fail at the slot bound.
func FuzzEMSortKeys(f *testing.F) {
	f.Add([]byte{0}, false, uint8(1))
	f.Add([]byte{1, 2}, true, uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, false, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 3}, true, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, repeat bool, p uint8) {
		const n = 512
		if len(data) == 0 {
			return
		}
		keys := make([]int64, n)
		for i := range keys {
			if repeat {
				keys[i] = int64(int8(data[i%len(data)]))
			} else {
				keys[i] = int64(int8(data[i*len(data)/n]))
			}
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		cfg := core.Config{V: 4, P: 1 + int(p%2), D: 2, B: 4}
		got, _, err := EMSort(keys, wordcodec.I64{}, cfg)
		switch {
		case err != nil && !strings.Contains(err.Error(), "slot bound"):
			t.Fatalf("unbalanced: %v", err)
		case err == nil && !slices.Equal(got, want):
			t.Fatalf("unbalanced: output differs from slices.Sort")
		}
		cfg.Balanced = true
		got, _, err = EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("balanced: %v", err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("balanced: output differs from slices.Sort")
		}
	})
}

// allocBytes is the heap bytes f allocates, after a collection.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSortDeliveryAllocation holds the in-place delivery to what it
// saves: the last merge level writes each VP's bucket straight into the
// result, so EMSort allocates the result (8 bytes an item), the disk
// images and the arena, but no merged runs and no concatenation of them
// (16 bytes an item between them). The arena is one worker's: K = 1 pins
// c = 1 on any host. The disks hold only what is live: round 1's empty
// contexts give their tracks back and the buckets reuse them, and the
// track table grows by chunks, not by appends. The sort allocates about
// 29.3 bytes an item (43.9 while dead context tracks stayed allocated and
// the table was appended to), and the bound lies about halfway to the
// 37.5 or so that merging into made runs costs. Balanced, the routing
// borrows its bins, regrouped messages and rebuilt inboxes from the same
// arena and leaves State the inner program's: the sort allocates about
// 39.8 bytes an item (55.8 before), and the bound lies just above that (a
// State copied each round adds 24).
func TestSortDeliveryAllocation(t *testing.T) {
	const n, v = 1 << 16, 8
	keys := workload.Int64s(1, n)
	for _, arm := range []struct {
		balanced bool
		bound    float64
	}{{false, 34}, {true, 44}} {
		cfg := core.Config{V: v, P: 1, D: 2, B: 64, PipelineDepth: 1, Balanced: arm.balanced}
		if _, _, err := EMSort(keys, wordcodec.I64{}, cfg); err != nil { // warm the runtime's one-off allocations
			t.Fatal(err)
		}
		var err error
		got := float64(allocBytes(func() { _, _, err = EMSort(keys, wordcodec.I64{}, cfg) })) / n
		if err != nil {
			t.Fatal(err)
		}
		if got > arm.bound {
			t.Errorf("balanced=%v: %.1f bytes allocated an item, want at most %g: a merged run, a concatenation or a copy of State is back",
				arm.balanced, got, arm.bound)
		}
	}
}

// TestBalancedAtLemma2Price holds BalancedRouting to Lemma 2's price on
// the sort: twice the message passes of the unbalanced run and no more,
// with contexts at the inner program's own width. Balanced messages are
// untagged, so each of the doubled passes moves the unbalanced run's
// words; phase-B rounds leave State as they found it, so they read the
// context and write none: six context passes where the unbalanced run
// makes four. Measured 2.01, 1.50 and 1.77 at p = 1 and 2.
func TestBalancedAtLemma2Price(t *testing.T) {
	const n, v = 1 << 16, 8
	keys := workload.Int64s(1, n)
	for _, p := range []int{1, 2} {
		cfg := core.Config{V: v, P: p, D: 2, B: 64, PipelineDepth: 1}
		_, plain, err := EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Balanced = true
		_, bal, err := EMSort(keys, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			what       string
			got, plain int64
			limit      float64
		}{
			{"message", bal.MsgOps, plain.MsgOps, 2.1},
			{"context", bal.CtxOps, plain.CtxOps, 1.55},
			{"total", bal.IO.ParallelOps, plain.IO.ParallelOps, 1.8},
		} {
			if ratio := float64(r.got) / float64(r.plain); ratio > r.limit {
				t.Errorf("p=%d: balanced %s ops %d are %.2f× the unbalanced %d, want ≤ %g×",
					p, r.what, r.got, ratio, r.plain, r.limit)
			}
		}
	}
}

// TestSortDeliveryCheckedIO runs EMSort against slices.Sort where a
// misplaced or late delivery would show: CheckedIO zeroes the arena at
// release, the keys hold no zero, and every VP's range starts at the
// offset its column of the cut table gives, so a range that started one
// bucket off would overrun the result or leave a gap of zeros. One VP,
// no keys, fewer keys than VPs, one, two and four processors, and
// Balanced; the Result's Outputs stay empty. Under -race it checks that
// round 1's writes of the cut table happen before round 2's reads.
func TestSortDeliveryCheckedIO(t *testing.T) {
	const v = 8
	keys := workload.Int64s(5, 1<<12)
	for i := range keys {
		keys[i] |= 1 // no zero value, so a zero read cannot pass
	}
	for _, tc := range []struct {
		n, v, p int
		bal     bool
	}{
		{1 << 12, 1, 1, false},
		{0, v, 2, false},
		{v - 3, v, 2, false},
		{1 << 12, v, 1, false},
		{1 << 12, v, 2, false},
		{1 << 12, v, 4, false},
		{1 << 12, v, 2, true},
	} {
		tag := fmt.Sprintf("n=%d v=%d p=%d balanced=%v", tc.n, tc.v, tc.p, tc.bal)
		in := keys[:tc.n]
		cfg := core.Config{V: tc.v, P: tc.p, D: 2, B: 16, CheckedIO: true, Balanced: tc.bal}
		got, res, err := EMSort(in, wordcodec.I64{}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		checkSorted(t, tag, got, in)
		for j, o := range res.Outputs {
			if len(o) != 0 {
				t.Errorf("%s: vp %d left %d items in Outputs, want none", tag, j, len(o))
			}
		}
	}
}
