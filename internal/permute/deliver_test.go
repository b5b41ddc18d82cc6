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

// TestDeliveryAllocation holds the in-place run to what it saves: the
// wrappers read their input where the caller keeps it, the last round
// places into lent scratch and each VP writes its values straight into
// the result. So a wrapper allocates the result (8 bytes an item), the
// disk images of slots sized to the largest message, and the arena (about
// 33 together), but no input partition (16 more), no output partition (16
// more) and no projection. The arena is one worker's: K = 1 pins c = 1 on
// any host. The permutation and the transposition, which computes its
// destinations as it reads, both allocate about 41 bytes an item (81 and
// 87 while the wrappers built input partitions and sized slots by
// 4·N/v² + v + 16); each bound lies just above that, well short of the 16
// bytes more that an input or output partition costs.
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
		{"permute", 44, func() error {
			_, _, err := permute.EMPermute(vals, dests, cfg)
			return err
		}},
		{"transpose", 44, func() error {
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
			t.Errorf("%s: %.1f bytes allocated an item, want at most %.0f: an input partition, an output partition or a projection is back", tc.name, got, tc.bound)
		}
	}
}

// TestIdentityAllocation holds the identity, whose every VP sends one
// message of its whole partition and v − 1 empty ones, to what a random
// permutation allocates at permute_mem's geometry (v = 16, D = 4,
// B = 512) and a small N. A ring slot's flat image holds its messages'
// live prefixes back to back, so the identity's one message takes the
// words the random permutation's sixteen do: 43.1 bytes an item against
// 31.2 (1.38×); images laid out the largest live prefix apart make the
// identity's v times its message (58.7 against 32.9, 1.78×). The rest of
// the gap is MemDisk's track table, which spans the identity's slots of a
// whole partition each.
func TestIdentityAllocation(t *testing.T) {
	const n, v = 1 << 18, 16
	vals := workload.Int64s(1, n)
	id := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
	}
	cfg := core.Config{V: v, P: 1, D: 4, B: 512, PipelineDepth: 1}
	perItem := func(dests []int64) float64 {
		if _, _, err := permute.EMPermute(vals, dests, cfg); err != nil { // warm the runtime's one-off allocations
			t.Fatal(err)
		}
		var err error
		got := float64(allocBytes(func() { _, _, err = permute.EMPermute(vals, dests, cfg) })) / n
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	random, identity := perItem(workload.Permutation(2, n)), perItem(id)
	if identity > 1.5*random {
		t.Errorf("the identity allocates %.1f bytes an item, the random permutation %.1f: want at most 1.5×", identity, random)
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

// classes are the permutation classes every permutation must run on, as
// destinations of n positions over v VPs: the identity and the reverse
// send each VP's whole partition to one owner; a block rotation sends
// partition s to the positions of partition s+1; the transpose pattern is
// the column-major order of a k×(n/k) matrix, k the largest divisor of n
// not above √n (returned too); and a random permutation of the seed.
func classes(seed int64, n, v int) (cs []class, k int) {
	id, rev, rot, tr := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	shift := (n + v - 1) / v
	k = 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			k = d
		}
	}
	for i := range n {
		id[i] = int64(i)
		rev[i] = int64(n - 1 - i)
		rot[i] = int64((i + shift) % n)
		tr[i] = int64(i%(n/k)*k + i/(n/k))
	}
	return []class{
		{"identity", id},
		{"reverse", rev},
		{"block rotation", rot},
		{fmt.Sprintf("transpose %d×%d", k, n/k), tr},
		{"random", workload.Permutation(seed, n)},
	}, k
}

// class is a named permutation.
type class struct {
	name  string
	dests []int64
}

// oddVals is n values none of which is zero, so a zero read cannot pass.
func oddVals(seed int64, n int) []int64 {
	vals := workload.Int64s(seed, n)
	for i := range vals {
		vals[i] |= 1
	}
	return vals
}

// TestEMPermuteEveryPattern: every permutation runs, not only a random
// one. The slot holds the largest message the destinations make, so the
// identity, the reverse and a block rotation — one message of a whole
// partition from each VP — fit it, as do 1×N and N×1 transposes (both are
// the identity) and a shape v does not divide. Each runs against
// Sequential at one and two processors, depths 1, 2 and auto, balanced or
// not, under CheckedIO.
func TestEMPermuteEveryPattern(t *testing.T) {
	const n, v = 1 << 12, 8
	vals := oddVals(5, n)
	perms, _ := classes(6, n, v)
	shapes := []struct{ k, l int }{{1, n}, {n, 1}, {64, 64}, {63, 65}}
	for _, p := range []int{1, 2} {
		for _, depth := range []int{1, 2, 0} {
			for _, bal := range []bool{false, true} {
				tag := fmt.Sprintf("p=%d k=%d balanced=%v", p, depth, bal)
				cfg := core.Config{V: v, P: p, D: 2, B: 16, PipelineDepth: depth, CheckedIO: true, Balanced: bal}
				for _, c := range perms {
					got, res, err := permute.EMPermute(vals, c.dests, cfg)
					if err != nil {
						t.Errorf("%s %s: %v", c.name, tag, err)
						continue
					}
					if !slices.Equal(got, permute.Sequential(vals, c.dests)) {
						t.Errorf("%s %s: output differs from Sequential", c.name, tag)
					}
					for j, o := range res.Outputs {
						if len(o) != 0 {
							t.Errorf("%s %s: vp %d left %d items in Outputs, want none", c.name, tag, j, len(o))
						}
					}
				}
				for _, s := range shapes {
					in := vals[:s.k*s.l]
					got, _, err := transpose.EMTranspose(in, s.k, s.l, cfg)
					if err != nil {
						t.Errorf("transpose %d×%d %s: %v", s.k, s.l, tag, err)
						continue
					}
					if !slices.Equal(got, transpose.Sequential(in, s.k, s.l)) {
						t.Errorf("transpose %d×%d %s: output differs from Sequential", s.k, s.l, tag)
					}
				}
			}
		}
	}
}

// FuzzEMPermute runs the permutation class pattern % 5 of classes on n
// positions over v VPs against Sequential, at two processors when
// pattern/5 is odd and v even, and balanced when pattern/10 is odd. The
// transpose pattern also runs through EMTranspose. Every run must
// succeed: no class may overflow its slot.
func FuzzEMPermute(f *testing.F) {
	f.Add(uint8(0), uint16(4096), uint8(8))
	f.Add(uint8(1), uint16(777), uint8(5))
	f.Add(uint8(7), uint16(1000), uint8(16))
	f.Add(uint8(13), uint16(4095), uint8(8))
	f.Add(uint8(19), uint16(1), uint8(3))
	f.Add(uint8(3), uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, pattern uint8, n16 uint16, v8 uint8) {
		n, v := int(n16)%5000, int(v8)%16+1
		p := 1
		if pattern/5%2 == 1 && v%2 == 0 {
			p = 2
		}
		bal := pattern/10%2 == 1
		cs, k := classes(int64(n16), n, v)
		c := cs[pattern%5]
		tag := fmt.Sprintf("%s n=%d v=%d p=%d balanced=%v", c.name, n, v, p, bal)
		vals := oddVals(int64(pattern), n)
		cfg := core.Config{V: v, P: p, D: 2, B: 8, Balanced: bal}
		got, _, err := permute.EMPermute(vals, c.dests, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !slices.Equal(got, permute.Sequential(vals, c.dests)) {
			t.Fatalf("%s: output differs from Sequential", tag)
		}
		if pattern%5 != 3 {
			return
		}
		got, _, err = transpose.EMTranspose(vals, k, n/k, cfg)
		if err != nil {
			t.Fatalf("EMTranspose %s: %v", tag, err)
		}
		if !slices.Equal(got, transpose.Sequential(vals, k, n/k)) {
			t.Fatalf("EMTranspose %s: output differs from Sequential", tag)
		}
	})
}
