package cgm

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// echoProgram finishes immediately, outputting its input.
type echoProgram struct{}

func (echoProgram) Init(vp *VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (echoProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	return nil, true
}
func (echoProgram) Output(vp *VP[int64]) []int64 { return vp.State }

// rotateProgram sends its items to VP (ID+1) mod V for k rounds.
type rotateProgram struct{ k int }

func (rotateProgram) Init(vp *VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (p rotateProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round > 0 {
		// Adopt what arrived from our left neighbour.
		src := (vp.ID - 1 + vp.V) % vp.V
		vp.State = append(vp.State[:0], inbox[src]...)
	}
	if round == p.k {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = append([]int64(nil), vp.State...)
	return out, false
}
func (p rotateProgram) Output(vp *VP[int64]) []int64 { return vp.State }

// sumProgram computes the global sum via an all-to-one then broadcast.
type sumProgram struct{}

func (sumProgram) Init(vp *VP[int64], input []int64) {
	var s int64
	for _, x := range input {
		s += x
	}
	vp.State = []int64{s}
}
func (sumProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	switch round {
	case 0: // send local sum to VP 0
		out := make([][]int64, vp.V)
		out[0] = []int64{vp.State[0]}
		return out, false
	case 1: // VP 0 totals and broadcasts
		if vp.ID == 0 {
			var tot int64
			for _, m := range inbox {
				for _, x := range m {
					tot += x
				}
			}
			out := make([][]int64, vp.V)
			for d := 0; d < vp.V; d++ {
				out[d] = []int64{tot}
			}
			return out, false
		}
		return nil, false
	default: // adopt the broadcast value
		vp.State = []int64{inbox[0][0]}
		return nil, true
	}
}
func (sumProgram) Output(vp *VP[int64]) []int64 { return vp.State }

type panicProgram struct{}

func (panicProgram) Init(vp *VP[int64], input []int64) {}
func (panicProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if vp.ID == 1 {
		panic("boom")
	}
	return nil, true
}
func (panicProgram) Output(vp *VP[int64]) []int64 { return nil }

type disagreeProgram struct{}

func (disagreeProgram) Init(vp *VP[int64], input []int64) {}
func (disagreeProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	return nil, vp.ID == 0
}
func (disagreeProgram) Output(vp *VP[int64]) []int64 { return nil }

type badOutboxProgram struct{}

func (badOutboxProgram) Init(vp *VP[int64], input []int64) {}
func (badOutboxProgram) Round(vp *VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	return make([][]int64, vp.V+1), true
}
func (badOutboxProgram) Output(vp *VP[int64]) []int64 { return nil }

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	return xs
}

func TestRunEcho(t *testing.T) {
	in := seq(17)
	res, err := Run[int64](echoProgram{}, 4, Scatter(in, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := res.Output()
	if len(out) != 17 {
		t.Fatalf("output length %d", len(out))
	}
	for i, x := range out {
		if x != int64(i) {
			t.Fatalf("out[%d] = %d", i, x)
		}
	}
	if res.Stats.Rounds != 1 || res.Stats.TotalVolume != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestRunRotate(t *testing.T) {
	const v = 5
	in := seq(20)
	res, err := Run[int64](rotateProgram{k: v}, v, Scatter(in, v))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// After v rotations every partition is back home.
	out := res.Output()
	for i, x := range out {
		if x != int64(i) {
			t.Fatalf("out[%d] = %d after full rotation", i, x)
		}
	}
	if res.Stats.Rounds != v+1 {
		t.Errorf("Rounds = %d, want %d", res.Stats.Rounds, v+1)
	}
	if res.Stats.MaxH != 4 { // each VP sends/receives one partition of 4
		t.Errorf("MaxH = %d, want 4", res.Stats.MaxH)
	}
	if res.Stats.TotalVolume != int64(v*20) {
		t.Errorf("TotalVolume = %d, want %d", res.Stats.TotalVolume, v*20)
	}
}

func TestRunSum(t *testing.T) {
	const v = 8
	in := seq(100)
	res, err := Run[int64](sumProgram{}, v, Scatter(in, v))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(99 * 100 / 2)
	for i, o := range res.Outputs {
		if len(o) != 1 || o[0] != want {
			t.Fatalf("vp %d output = %v, want [%d]", i, o, want)
		}
	}
	if res.Stats.Rounds != 3 {
		t.Errorf("Rounds = %d, want 3", res.Stats.Rounds)
	}
}

func TestRunSingleProcessor(t *testing.T) {
	res, err := Run[int64](sumProgram{}, 1, [][]int64{seq(10)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outputs[0][0] != 45 {
		t.Fatalf("sum = %d", res.Outputs[0][0])
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run[int64](echoProgram{}, 0, nil); err == nil {
		t.Error("v=0 accepted")
	}
	if _, err := Run[int64](echoProgram{}, 2, make([][]int64, 3)); err == nil {
		t.Error("partition count mismatch accepted")
	}
	_, err := Run[int64](panicProgram{}, 3, make([][]int64, 3))
	if err == nil || !strings.Contains(err.Error(), "vp 1 panicked") {
		t.Errorf("panic err = %v", err)
	}
	_, err = Run[int64](disagreeProgram{}, 2, make([][]int64, 2))
	if err == nil || !strings.Contains(err.Error(), "disagreed") {
		t.Errorf("disagree err = %v", err)
	}
	_, err = Run[int64](badOutboxProgram{}, 2, make([][]int64, 2))
	if err == nil || !strings.Contains(err.Error(), "outbox") {
		t.Errorf("bad outbox err = %v", err)
	}
}

func TestPartRangeCoversInput(t *testing.T) {
	for _, c := range []struct{ n, v int }{{0, 1}, {0, 3}, {1, 3}, {7, 3}, {9, 3}, {10, 4}, {100, 7}} {
		prev := 0
		for i := 0; i < c.v; i++ {
			lo, hi := PartRange(c.n, c.v, i)
			if lo != prev {
				t.Fatalf("n=%d v=%d: partition %d starts at %d, want %d", c.n, c.v, i, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d v=%d: partition %d empty-reversed [%d,%d)", c.n, c.v, i, lo, hi)
			}
			prev = hi
		}
		if prev != c.n {
			t.Fatalf("n=%d v=%d: partitions cover %d items", c.n, c.v, prev)
		}
	}
}

func TestPartRangeBalanced(t *testing.T) {
	// Sizes differ by at most one.
	for _, c := range []struct{ n, v int }{{10, 3}, {17, 5}, {4, 8}} {
		minSz, maxSz := int(^uint(0)>>1), 0
		for i := 0; i < c.v; i++ {
			lo, hi := PartRange(c.n, c.v, i)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("n=%d v=%d: partition sizes range [%d,%d]", c.n, c.v, minSz, maxSz)
		}
	}
}

func TestOwnerInvertsPartRange(t *testing.T) {
	if err := quick.Check(func(n16, v8 uint8) bool {
		n := int(n16)%200 + 1
		v := int(v8)%16 + 1
		for i := 0; i < v; i++ {
			lo, hi := PartRange(n, v, i)
			for g := lo; g < hi; g++ {
				if Owner(n, v, g) != i {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestOwnersMatchOwner holds the division-free table to the one-off
// Owner at every index: exhaustively on small machines (n = 0 and n < v
// among them) and at sizes whose cells are powers of two, odd and prime;
// a lookup outside [0, n) must panic.
func TestOwnersMatchOwner(t *testing.T) {
	check := func(n, v int) {
		o := NewOwners(n, v)
		for g := 0; g < n; g++ {
			if got, want := o.Owner(g), Owner(n, v, g); got != want {
				t.Fatalf("n=%d v=%d: Owners.Owner(%d) = %d, want %d", n, v, g, got, want)
			}
		}
		for _, g := range []int{-1, n} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("n=%d v=%d: Owners.Owner(%d) did not panic", n, v, g)
					}
				}()
				o.Owner(g)
			}()
		}
	}
	for n := 0; n < 300; n++ {
		for v := 1; v < 40; v++ {
			check(n, v)
		}
	}
	for _, n := range []int{1 << 20, 1<<20 + 13, 999_983} {
		for _, v := range []int{3, 16, 64, 1000} {
			check(n, v)
		}
	}
}

func TestScatterAliasesInput(t *testing.T) {
	in := seq(10)
	parts := Scatter(in, 3)
	parts[0][0] = 99
	if in[0] != 99 {
		t.Error("Scatter copied instead of aliasing")
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
}

// initWith is a program whose Init is the given function.
type initWith struct {
	Program[int]
	init func(vp *VP[int], input []int)
}

func (p initWith) Init(vp *VP[int], input []int) { p.init(vp, input) }

// TestInitCopies: the check passes an Init that copies and catches the
// three ways one can fail to — keeping the input, keeping an empty
// re-slice of it that an append would fill, and editing it before copying.
func TestInitCopies(t *testing.T) {
	for _, c := range []struct {
		name string
		init func(vp *VP[int], input []int)
		ok   bool
	}{
		{"copy", func(vp *VP[int], in []int) { vp.State = append([]int(nil), in...) }, true},
		{"alias", func(vp *VP[int], in []int) { vp.State = in }, false},
		{"empty re-slice", func(vp *VP[int], in []int) { vp.State = in[:0] }, false},
		{"edit then copy", func(vp *VP[int], in []int) { in[0]++; vp.State = append([]int(nil), in...) }, false},
	} {
		err := InitCopies[int](initWith{init: c.init}, 2, []int{3, 1, 2})
		if (err == nil) != c.ok {
			t.Errorf("%s: InitCopies = %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

func TestRunnersAgree(t *testing.T) {
	in := seq(40)
	const v = 5
	conc, err := Run[int64](rotateProgram{k: v}, v, Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	// The sequential arm: every VP stepped on one goroutine at a time.
	old := runtime.GOMAXPROCS(1)
	seqr, err := Run[int64](rotateProgram{k: v}, v, Scatter(in, v))
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if seqr.Stats.Rounds != conc.Stats.Rounds || seqr.Stats.TotalVolume != conc.Stats.TotalVolume {
		t.Fatalf("stats differ: %+v vs %+v", seqr.Stats, conc.Stats)
	}
	a, b := conc.Output(), seqr.Output()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestSizeMatrixPerRound(t *testing.T) {
	const v = 3
	in := seq(12)
	res, err := Run[int64](rotateProgram{k: 1}, v, Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.SizeMatrixPerRound) != res.Stats.Rounds {
		t.Fatalf("%d matrices for %d rounds", len(res.Stats.SizeMatrixPerRound), res.Stats.Rounds)
	}
	m0 := res.Stats.SizeMatrixPerRound[0]
	// Round 0: VP i sends its 4-item partition to (i+1) mod 3.
	for i := 0; i < v; i++ {
		d := (i + 1) % v
		if m0[i*v+d] != 4 {
			t.Errorf("round 0 msg %d→%d = %d, want 4", i, d, m0[i*v+d])
		}
	}
}
