package balance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cgm"
	"repro/internal/workload"
)

// randomHRelation builds, for each of v processors, v messages of random
// sizes such that each processor sends exactly perProc items in total.
func randomHRelation(rng *rand.Rand, v, perProc int) [][][]int64 {
	msgs := make([][][]int64, v)
	next := int64(0)
	for i := 0; i < v; i++ {
		msgs[i] = make([][]int64, v)
		remaining := perProc
		for j := 0; j < v; j++ {
			var sz int
			if j == v-1 {
				sz = remaining
			} else {
				sz = rng.Intn(remaining + 1)
			}
			remaining -= sz
			m := make([]int64, sz)
			for k := range m {
				m[k] = next
				next++
			}
			msgs[i][j] = m
		}
	}
	return msgs
}

// sizeMatrix is the h-relation's size matrix: sizes[i·v+j] = |msgs[i][j]|.
func sizeMatrix(msgs [][][]int64) []int {
	v := len(msgs)
	sizes := make([]int, v*v)
	for i, row := range msgs {
		for j, m := range row {
			sizes[i*v+j] = len(m)
		}
	}
	return sizes
}

// exchange simulates the two balanced supersteps across all processors and
// returns (sizesA, sizesB, final inboxes).
func exchange(v int, msgs [][][]int64) (sizesA, sizesB []int, inboxes [][][]int64) {
	sizes := sizeMatrix(msgs)
	binsBySrc := make([][][]int64, v)
	for i := 0; i < v; i++ {
		binsBySrc[i] = PhaseA(i, v, msgs[i], nil)
		for _, bin := range binsBySrc[i] {
			sizesA = append(sizesA, len(bin))
		}
	}
	// Superstep A delivery: processor b receives bin b from every source.
	recvA := make([][][]int64, v)
	for b := 0; b < v; b++ {
		recvA[b] = make([][]int64, v)
		for i := 0; i < v; i++ {
			recvA[b][i] = binsBySrc[i][b]
		}
	}
	// Superstep B.
	outB := make([][][]int64, v)
	for b := 0; b < v; b++ {
		outB[b] = PhaseB(b, v, sizes, recvA[b], nil)
		for _, m := range outB[b] {
			sizesB = append(sizesB, len(m))
		}
	}
	recvB := make([][][]int64, v)
	for d := 0; d < v; d++ {
		recvB[d] = make([][]int64, v)
		for b := 0; b < v; b++ {
			recvB[d][b] = outB[b][d]
		}
	}
	inboxes = make([][][]int64, v)
	for d := 0; d < v; d++ {
		inboxes[d] = Deliver(d, v, sizes, recvB[d], nil)
	}
	return sizesA, sizesB, inboxes
}

func TestBalancedRoutingDelivers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, v := range []int{1, 2, 3, 5, 8} {
		per := 4 * v
		msgs := randomHRelation(rng, v, per)
		_, _, inboxes := exchange(v, msgs)
		for d := 0; d < v; d++ {
			for s := 0; s < v; s++ {
				want := msgs[s][d]
				got := inboxes[d][s]
				if len(got) != len(want) {
					t.Fatalf("v=%d: msg %d→%d length %d, want %d", v, s, d, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("v=%d: msg %d→%d item %d = %d, want %d (order lost?)",
							v, s, d, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// Theorem 1(A): with each processor sending exactly n/v items, superstep A
// messages lie within (n/v)/v ± (v-1)/2.
func TestTheorem1PhaseABounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, v := range []int{2, 4, 7, 10} {
		per := v*v + 3*v // n/v, comfortably > v²/2 so bounds are positive
		msgs := randomHRelation(rng, v, per)
		sizesA, _, _ := exchange(v, msgs)
		mean := float64(per) / float64(v)
		slack := float64(v-1) / 2
		for _, s := range sizesA {
			if float64(s) < mean-slack-1e-9 || float64(s) > mean+slack+1e-9 {
				t.Errorf("v=%d per=%d: phase A message size %d outside [%v, %v]",
					v, per, s, mean-slack, mean+slack)
			}
		}
	}
}

// Theorem 1(B): when every processor also receives exactly h = n/v items,
// superstep B messages lie within h/v ± (v-1)/2. A cyclic permutation
// pattern gives exactly that.
func TestTheorem1PhaseBBounds(t *testing.T) {
	for _, v := range []int{2, 4, 7, 10} {
		per := v*v + 2*v
		msgs := make([][][]int64, v)
		next := int64(0)
		for i := 0; i < v; i++ {
			msgs[i] = make([][]int64, v)
			// Send per/v items to every destination: a perfectly uniform
			// h-relation (each processor receives per items too).
			for j := 0; j < v; j++ {
				sz := per / v
				m := make([]int64, sz)
				for k := range m {
					m[k] = next
					next++
				}
				msgs[i][j] = m
			}
		}
		_, sizesB, _ := exchange(v, msgs)
		mean := float64(per) / float64(v)
		slack := float64(v-1)/2 + 1 // +1 rounding slack for per not divisible by v²
		for _, s := range sizesB {
			if float64(s) < mean-slack || float64(s) > mean+slack {
				t.Errorf("v=%d: phase B message size %d outside [%v, %v]", v, s, mean-slack, mean+slack)
			}
		}
	}
}

// An adversarial all-to-one h-relation: without balancing the single
// message has size n/v; with balancing no phase-A message exceeds
// n/v² + (v-1)/2.
func TestBalancingSmoothsAllToOne(t *testing.T) {
	const v = 8
	per := v * v * 2
	msgs := make([][][]int64, v)
	for i := 0; i < v; i++ {
		msgs[i] = make([][]int64, v)
		m := make([]int64, per)
		for k := range m {
			m[k] = int64(i*per + k)
		}
		msgs[i][0] = m // everything goes to processor 0
	}
	sizesA, _, inboxes := exchange(v, msgs)
	maxA := 0
	for _, s := range sizesA {
		if s > maxA {
			maxA = s
		}
	}
	bound := per/v + (v-1)/2 + 1
	if maxA > bound {
		t.Errorf("phase A max message %d exceeds bound %d", maxA, bound)
	}
	// Correct delivery to processor 0.
	for s := 0; s < v; s++ {
		if len(inboxes[0][s]) != per {
			t.Fatalf("processor 0 got %d items from %d, want %d", len(inboxes[0][s]), s, per)
		}
	}
	for d := 1; d < v; d++ {
		for s := 0; s < v; s++ {
			if len(inboxes[d][s]) != 0 {
				t.Fatalf("processor %d received stray items", d)
			}
		}
	}
}

// fragmented ships each processor's partition one item at a time,
// round-robin over all v destinations: a conforming BSP algorithm whose
// h-relation arrives in many small messages.
type fragmented struct{}

func (fragmented) Init(vp *cgm.VP[int64], input []int64) {
	vp.State = append([]int64(nil), input...)
}
func (fragmented) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round == 0 {
		out := make([][]int64, vp.V)
		for i, x := range vp.State {
			out[i%vp.V] = append(out[i%vp.V], x)
		}
		return out, false
	}
	vp.State = vp.State[:0]
	for _, m := range inbox {
		vp.State = append(vp.State, m...)
	}
	return nil, true
}
func (fragmented) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// Section 5, item (1): balancing a conforming BSP algorithm turns it into
// a BSP* algorithm. Theorem 1 guarantees every balanced message at least
// b = h/v − ⌈(v−1)/2⌉ items, so at that BSP* block size padding short
// messages up to b costs (almost) nothing: the balanced run moves each
// item twice, and its padded volume stays within 2.2·N.
func TestConversionReducesPaddedVolume(t *testing.T) {
	const v = 8
	n := v * v * 40 // h = n/v = 320 items per processor
	in := cgm.Scatter(workload.Int64s(1, n), v)
	res, err := cgm.Run(Wrap[int64](fragmented{}), v, in)
	if err != nil {
		t.Fatal(err)
	}
	h := n / v
	b := h/v - v/2 // v/2 = ⌈(v−1)/2⌉: 320/8 − 4 = 36
	if res.Stats.MinMsg < b {
		t.Errorf("balanced min message %d below guarantee %d", res.Stats.MinMsg, b)
	}
	var padded int64
	for _, m := range res.Stats.SizeMatrixPerRound {
		for _, sz := range m {
			if sz > 0 {
				padded += int64(max(sz, b))
			}
		}
	}
	if float64(padded) > 2.2*float64(n) {
		t.Errorf("balanced padded volume %d exceeds 2.2·N = %d", padded, int(2.2*float64(n)))
	}
}

// Observation 1: over one processor's bins, total slack above the minimum
// bin is at most v(v-1)/2.
func TestObservation1(t *testing.T) {
	if err := quick.Check(func(seed int64, v8 uint8) bool {
		v := int(v8)%7 + 2
		rng := rand.New(rand.NewSource(seed))
		msgs := randomHRelation(rng, v, v*v+v)
		bins := PhaseA(0, v, msgs[0], nil)
		minSz := len(bins[0])
		for _, b := range bins {
			if len(b) < minSz {
				minSz = len(b)
			}
		}
		extra := 0
		for _, b := range bins {
			extra += len(b) - minSz
		}
		return extra <= v*(v-1)/2
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// rotate is a copy of the cgm test program used to validate Wrap: the
// balanced program must produce identical outputs with exactly 2× rounds
// (minus the final communication-free round).
type rotate struct{ k int }

func (rotate) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (p rotate) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round > 0 {
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
func (p rotate) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

func TestWrapPreservesSemantics(t *testing.T) {
	const v, n = 4, 24
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(i * 3)
	}
	plain, err := cgm.Run[int64](rotate{k: v}, v, cgm.Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := cgm.Run(Wrap[int64](rotate{k: v}), v, cgm.Scatter(in, v))
	if err != nil {
		t.Fatal(err)
	}
	got := wrapped.Outputs
	for i := range plain.Outputs {
		if len(got[i]) != len(plain.Outputs[i]) {
			t.Fatalf("vp %d output length %d, want %d", i, len(got[i]), len(plain.Outputs[i]))
		}
		for k := range got[i] {
			if got[i][k] != plain.Outputs[i][k] {
				t.Fatalf("vp %d item %d = %d, want %d", i, k, got[i][k], plain.Outputs[i][k])
			}
		}
	}
	// Lemma 2: rounds at most double (+1 for the final round).
	if wrapped.Stats.Rounds > 2*plain.Stats.Rounds {
		t.Errorf("wrapped rounds = %d, plain = %d; want ≤ 2×", wrapped.Stats.Rounds, plain.Stats.Rounds)
	}
	// Balancing must reduce the largest single message: plain sends whole
	// partitions (n/v items); balanced messages are ≈ n/v² + slack.
	if wrapped.Stats.MaxMsg >= plain.Stats.MaxMsg {
		t.Errorf("balanced MaxMsg = %d, plain = %d; balancing had no effect",
			wrapped.Stats.MaxMsg, plain.Stats.MaxMsg)
	}
}
