package permute

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

func TestSequential(t *testing.T) {
	vals := []int64{10, 20, 30}
	dests := []int64{2, 0, 1}
	got := Sequential(vals, dests)
	want := []int64{20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCGMPermuteMatchesSequential(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 8, 100, 777} {
			vals := workload.Int64s(int64(n), n)
			dests := workload.Permutation(int64(v), n)
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{Dest: dests[i], Val: vals[i]}
			}
			res, err := cgm.Run[Item](New(n), v, cgm.Scatter(items, v))
			if err != nil {
				t.Fatalf("v=%d n=%d: %v", v, n, err)
			}
			want := Sequential(vals, dests)
			out := res.Output()
			for i := range want {
				if out[i].Val != want[i] {
					t.Fatalf("v=%d n=%d: out[%d] = %d, want %d", v, n, i, out[i].Val, want[i])
				}
			}
			if res.Stats.Rounds != 2 {
				t.Errorf("v=%d n=%d: rounds = %d, want 2 (λ = O(1))", v, n, res.Stats.Rounds)
			}
		}
	}
}

// appendRoute is the count-and-append route round 0 made before Init
// grouped the State: each item, in input order, appended to the message
// of its destination's owner.
func appendRoute(input []Item, n, v int) [][]Item {
	out := make([][]Item, v)
	for _, it := range input {
		d := cgm.Owner(n, v, int(it.Dest))
		out[d] = append(out[d], it)
	}
	return out
}

// TestRoundZeroMessagesUnchanged: Init followed by round 0 sends, message
// by message and item by item, what the count-and-append route sent — so
// the encoded images, the op counts and the goldens cannot move — and
// round 0 allocates nothing the size of the data.
func TestRoundZeroMessagesUnchanged(t *testing.T) {
	for _, n := range []int{0, 1, 777, 1 << 16} {
		id := make([]int64, n)
		rev := make([]int64, n)
		for i := range id {
			id[i] = int64(i)
			rev[i] = int64(n - 1 - i)
		}
		for _, v := range []int{1, 4, 16} {
			for name, dests := range map[string][]int64{"random": workload.Permutation(int64(n+v), n), "identity": id, "reverse": rev} {
				tag := fmt.Sprintf("%s n=%d v=%d", name, n, v)
				vals := workload.Int64s(int64(v), n)
				items := make([]Item, n)
				for i := range items {
					items[i] = Item{Dest: dests[i], Val: vals[i]}
				}
				for j, part := range cgm.Scatter(items, v) {
					want := appendRoute(part, n, v)
					vp := &cgm.VP[Item]{ID: j, V: v}
					New(n).Init(vp, part)
					st := vp.State
					got, done := New(n).Round(vp, 0, nil)
					if done || len(got) != v || len(vp.State) != 0 {
						t.Fatalf("%s vp %d: round 0 returned %d messages, done %v, State of %d", tag, j, len(got), done, len(vp.State))
					}
					for d := range want {
						if len(got[d]) != len(want[d]) || cap(got[d]) != len(got[d]) {
							t.Fatalf("%s vp %d: message %d has len %d cap %d, want len = cap = %d", tag, j, d, len(got[d]), cap(got[d]), len(want[d]))
						}
						for k := range want[d] {
							if got[d][k] != want[d][k] {
								t.Fatalf("%s vp %d: message %d item %d = %+v, want %+v", tag, j, d, k, got[d][k], want[d][k])
							}
						}
					}
					if a := testing.AllocsPerRun(5, func() { vp.State = st; New(n).Round(vp, 0, nil) }); a > 2 {
						t.Errorf("%s vp %d: round 0 made %v allocations, want at most 2", tag, j, a)
					}
				}
			}
		}
	}
}

func TestEMPermute(t *testing.T) {
	const n = 1000
	vals := workload.Int64s(1, n)
	dests := workload.Permutation(2, n)
	want := Sequential(vals, dests)
	for _, tc := range []struct {
		p, d int
		bal  bool
	}{{1, 1, false}, {2, 2, false}, {4, 2, true}} {
		cfg := core.Config{V: 4, P: tc.p, D: tc.d, B: 16, Balanced: tc.bal}
		got, res, err := EMPermute(vals, dests, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: out[%d] = %d, want %d", tc, i, got[i], want[i])
			}
		}
		if res.IO.ParallelOps == 0 {
			t.Errorf("%+v: no I/O recorded", tc)
		}
	}
}

func TestEMPermuteIdentityAndReverse(t *testing.T) {
	const n = 256
	vals := workload.Int64s(9, n)
	id := make([]int64, n)
	rev := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
		rev[i] = int64(n - 1 - i)
	}
	for name, dests := range map[string][]int64{"identity": id, "reverse": rev} {
		got, _, err := EMPermute(vals, dests, core.Config{V: 4, P: 2, D: 2, B: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Sequential(vals, dests)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestBaselinePermute(t *testing.T) {
	const n = 500
	vals := workload.Int64s(3, n)
	dests := workload.Permutation(4, n)
	arr := pdm.NewMemArray(2, 8)
	got, info, err := Baseline(arr, vals, dests, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := Sequential(vals, dests)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if info.SortOps == 0 {
		t.Error("baseline recorded no I/O")
	}
}

func TestPermuteProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, n16 uint16, v8 uint8) bool {
		n := int(n16)%300 + 1
		v := int(v8)%6 + 1
		vals := workload.Int64s(seed, n)
		dests := workload.Permutation(seed+1, n)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Dest: dests[i], Val: vals[i]}
		}
		res, err := cgm.Run[Item](New(n), v, cgm.Scatter(items, v))
		if err != nil {
			return false
		}
		want := Sequential(vals, dests)
		out := res.Output()
		for i := range want {
			if out[i].Val != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The structured permutation classes of Section 1.2 (bit reversal, cyclic
// shift, matrix re-blocking) are worst cases for naive external
// permutation; CGMPermute handles them all in λ = 2 rounds, with the same
// context I/O as a random permutation and message I/O that depends only
// on how the items spread over the v² messages.
func TestStructuredPermutationClasses(t *testing.T) {
	const k = 10
	n := 1 << k
	vals := workload.Int64s(1, n)
	classes := map[string][]int64{
		"bit-reversal": workload.BitReversalPermutation(k),
		"cyclic-shift": workload.CyclicShiftPermutation(n, n/3),
		"re-blocking":  workload.MatrixReblockPermutation(32, 32, 8),
	}
	// What this geometry costs when every context run and message slot is
	// moved whole — the content-oblivious count, and the upper bound of any
	// live-prefix run (it was the pinned count of ops_regression_test.go's
	// permute-par case until PR 22).
	const fullImageOps = 468
	_, random, err := EMPermute(vals, workload.Permutation(2, n), core.Config{V: 4, P: 2, D: 2, B: 32})
	if err != nil {
		t.Fatal(err)
	}
	for name, dests := range classes {
		got, res, err := EMPermute(vals, dests, core.Config{V: 4, P: 2, D: 2, B: 32})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Sequential(vals, dests)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: out[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
		// Content-oblivious addresses, live-prefix transfers: the contexts
		// are the same N/v items whatever the permutation, so the context
		// I/O is the random permutation's; the message I/O follows the
		// message sizes and stays under the full-image count.
		if res.Rounds != random.Rounds || res.CtxOps != random.CtxOps {
			t.Errorf("%s: %d rounds, %d context ops; random permutation took %d and %d",
				name, res.Rounds, res.CtxOps, random.Rounds, random.CtxOps)
		}
		if res.IO.ParallelOps > fullImageOps {
			t.Errorf("%s: %d ops, above the full-image count %d", name, res.IO.ParallelOps, fullImageOps)
		}
	}
}

// The bulk path encodes word for word what the per-item Encode does,
// decodes back the items, and allocates nothing in either direction.
func TestCodecBulkMatchesPerItem(t *testing.T) {
	var c Codec
	items := make([]Item, 257)
	for i := range items {
		items[i] = Item{Dest: int64(i*7919) - 1<<40, Val: -int64(i) * 0x9e37_79b9}
	}
	want := make([]pdm.Word, 2*len(items))
	for i, it := range items {
		c.Encode(want[2*i:2*i+2], it)
	}
	got := make([]pdm.Word, len(want))
	c.EncodeSliceInto(got, items)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: bulk %#x, per item %#x", i, got[i], want[i])
		}
	}
	back := make([]Item, len(items))
	c.DecodeSliceInto(back, got)
	for i := range items {
		if back[i] != items[i] || c.Decode(got[2*i:2*i+2]) != items[i] {
			t.Fatalf("item %d: decoded %+v, want %+v", i, back[i], items[i])
		}
	}
	if a := testing.AllocsPerRun(10, func() { c.EncodeSliceInto(got, items) }); a != 0 {
		t.Errorf("EncodeSliceInto: %v allocations, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { c.DecodeSliceInto(back, got) }); a != 0 {
		t.Errorf("DecodeSliceInto: %v allocations, want 0", a)
	}
}

// BenchmarkPermuteRounds splits the permutation's local work by superstep
// at the benchmark's per-VP size: 2²² items over v = 16, so 2¹⁸ a VP. Each
// op is one VP's compute in one round (times 16 is the round's share of
// permute_mem on one core): init+r0 is Init and round 0 on VP 0's
// partition, r1 is round 1 on the messages a real round 0 of all sixteen
// sent VP 0.
func BenchmarkPermuteRounds(b *testing.B) {
	const n, v = 1 << 22, 16
	vals := workload.Int64s(1, n)
	dests := workload.Permutation(2, n)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Dest: dests[i], Val: vals[i]}
	}
	parts := cgm.Scatter(items, v)
	p := New(n)
	inbox := make([][]Item, v)
	for j := range parts {
		vp := &cgm.VP[Item]{ID: j, V: v}
		p.Init(vp, parts[j])
		out, _ := p.Round(vp, 0, nil)
		inbox[j] = out[0]
	}
	b.Run("init+r0", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vp := &cgm.VP[Item]{V: v}
			p.Init(vp, parts[0])
			p.Round(vp, 0, nil)
		}
	})
	b.Run("r1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Round(&cgm.VP[Item]{V: v}, 1, inbox)
		}
	})
}
