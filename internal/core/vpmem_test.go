package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/wordcodec"
)

// hostile keeps nothing of its own: every outbox message, the state it
// leaves behind and the output it returns are re-slices of the memory the
// driver decoded for it. It never writes an item, so the in-memory
// runtime (where the same slices are shared between VPs) is a valid
// reference.
type hostile struct{}

func (hostile) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (hostile) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	v := vp.V
	out := make([][]int64, v)
	switch round {
	case 0, 2: // pieces of the state
		for d := 0; d < v; d++ {
			lo, hi := cgm.PartRange(len(vp.State), v, d)
			out[d] = vp.State[lo:hi]
		}
		if round == 2 && len(vp.State) > 0 {
			vp.State = vp.State[1:]
		}
		return out, false
	case 1: // whole and partial inbox messages; the state becomes one too
		for d := 0; d < v; d++ {
			m := inbox[(d+vp.ID)%v]
			out[d] = m[len(m)/3:]
		}
		vp.State = inbox[0]
		return out, false
	default:
		if vp.ID%2 == 1 {
			vp.State = inbox[vp.ID]
		}
		return nil, true
	}
}

func (hostile) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// TestArenaAliasSafety: whatever a program hands back that still points
// into the decode arena must reach its consumer intact. Checked mode
// zeroes the arena at the end of every superstep, so a reference the
// driver failed to copy out shows up here as zeros (the inputs have none).
// At GOMAXPROCS 2 and 4 the VPs of a processor compute on c ≥ 2 arenas.
func TestArenaAliasSafety(t *testing.T) {
	for _, g := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", g), func(t *testing.T) { AtProcs(g, func() { aliasSafety(t, hostile{}) }) })
	}
}

// aliasSafety runs prog on 103 items over four VPs under both machines,
// at p = 1, 2 and 4, CheckedIO and CacheContexts on and off, at depths 1,
// 2, 8 and auto, and holds every output to the in-memory runtime's.
func aliasSafety(t *testing.T, prog cgm.Program[int64]) {
	const v, n = 4, 103
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(1000 + i)
	}
	parts := cgm.Scatter(in, v)
	ref, err := cgm.Run[int64](prog, v, parts)
	if err != nil {
		t.Fatal(err)
	}
	codec := wordcodec.I64{}
	for _, checked := range []bool{true, false} {
		for _, cache := range []bool{false, true} {
			for _, k := range []int{1, 2, 8, 0} { // 1: the synchronous schedule; 0: auto
				cfg := Config{V: v, D: 2, B: 8, MaxMsgItems: n, MaxCtxItems: n,
					CheckedIO: checked, CacheContexts: cache, PipelineDepth: k}
				tag := fmt.Sprintf("checked=%v cache=%v k=%d", checked, cache, k)
				res, err := RunSeq[int64](prog, codec, cfg, parts)
				if err != nil {
					t.Fatalf("seq %s: %v", tag, err)
				}
				sameOutputs(t, "seq "+tag, res.Outputs, ref.Outputs)
				for _, p := range []int{1, 2, 4} {
					cfg.P = p
					res, err := RunPar[int64](prog, codec, cfg, parts)
					if err != nil {
						t.Fatalf("par p=%d %s: %v", p, tag, err)
					}
					sameOutputs(t, fmt.Sprintf("par p=%d %s", p, tag), res.Outputs, ref.Outputs)
				}
			}
		}
	}
}

// borrower builds everything it hands back out of vp.Scratch, two
// borrows a call: Init its State; each of three rounds the State it
// leaves (the half of the old one it keeps, what it received, plus one
// item) and the buffer its messages are cut from (the other half, to
// every VP); Output a State-sized buffer and then the slice it returns.
// The sizes differ from VP to VP and from call to call, and the last
// call, Round and Output, borrows the most, so a worker's borrows come
// from its region and from chunks beyond it. Every borrow must be zeroed
// and disjoint from the other borrow and from the State it has yet to
// read.
type borrower struct{ t *testing.T }

const borrowRounds = 3

// borrow takes two slices of n and m items from vp.Scratch and checks them.
func (b borrower) borrow(vp *cgm.VP[int64], n, m int) ([]int64, []int64) {
	x, y := vp.Scratch(n), vp.Scratch(m)
	for _, s := range [][]int64{x, y} {
		if len(s) != cap(s) || slices.ContainsFunc(s, func(i int64) bool { return i != 0 }) {
			b.t.Errorf("vp %d: lent %d items, cap %d, not all zero", vp.ID, len(s), cap(s))
		}
		if within(s, vp.State) || within(vp.State, s) {
			b.t.Errorf("vp %d: a borrow overlaps the State", vp.ID)
		}
	}
	if within(x, y) || within(y, x) {
		b.t.Errorf("vp %d: two borrows of one call overlap", vp.ID)
	}
	return x, y
}

func (b borrower) Init(vp *cgm.VP[int64], input []int64) {
	st, pad := b.borrow(vp, len(input), 1+vp.ID%3)
	copy(st, input)
	pad[0] = 1
	vp.State = st
}

func (b borrower) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	recv := 0
	for _, m := range inbox {
		recv += len(m)
	}
	keep := len(vp.State) - len(vp.State)/2
	if round == borrowRounds {
		keep = len(vp.State)
	}
	st, buf := b.borrow(vp, keep+recv+1, len(vp.State)-keep)
	n := copy(st, vp.State[:keep])
	for _, m := range inbox {
		for _, x := range m {
			st[n] = x + 1
			n++
		}
	}
	st[n] = int64(10000*(round+1) + vp.ID)
	for i, x := range vp.State[keep:] {
		buf[i] = x + 3
	}
	vp.State = st
	if round == borrowRounds {
		return nil, true
	}
	out := make([][]int64, vp.V)
	for d := range out {
		lo, hi := cgm.PartRange(len(buf), vp.V, (d+vp.ID+round)%vp.V)
		out[d] = buf[lo:hi]
	}
	return out, false
}

func (b borrower) Output(vp *cgm.VP[int64]) []int64 {
	pad, out := b.borrow(vp, len(vp.State), len(vp.State))
	copy(out, vp.State)
	copy(pad, vp.State)
	return out
}

// TestScratchAliasSafety: what a program builds out of lent scratch —
// its State, its messages, its output — must reach its consumer intact,
// from the worker's region and from the chunks lent beyond it alike, and
// the borrows of one call never overlap. Checked mode zeroes region and
// chunks at the end of every superstep, so a reference the driver failed
// to copy out shows up here as zeros.
func TestScratchAliasSafety(t *testing.T) {
	for _, g := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", g), func(t *testing.T) { AtProcs(g, func() { aliasSafety(t, borrower{t}) }) })
	}
}

// holdEcho keeps its whole partition as state, untouched, sends four
// items to everyone in round 0 and echoes its inbox for R more rounds.
// Every round it borrows Borrow items of scratch and writes them.
type holdEcho struct{ R, Borrow int }

func (holdEcho) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (p holdEcho) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	copy(vp.Scratch(p.Borrow), vp.State)
	switch {
	case round == 0:
		out := make([][]int64, vp.V)
		for d := range out {
			out[d] = append([]int64(nil), vp.State[:4]...)
		}
		return out, false
	case round < p.R:
		return inbox, false
	}
	return nil, true
}

func (holdEcho) Output(vp *cgm.VP[int64]) []int64 { return vp.State[:1] }

// TestDecodeAllocIndependentOfRounds: the context is decoded into the
// arena, so what a further round allocates is headers, closures and the
// echoed 4-item messages — a constant that does not grow with the N
// items of state every superstep swaps in and out. With c = 2 workers
// per processor the hand-off to them adds nothing per superstep either:
// the workers and their channels are made once, at set-up. The borrowing
// arms take perVP items of scratch every round: the worker's arena lends
// them, so they too cost nothing once it has grown, where a make per
// superstep would add 128 KiB per VP per round.
//
// The count of allocations is bounded as well as their bytes: a round
// here costs about 4 mallocs under RunSeq and about 16 under RunPar (its
// batches to the other processor and route phase), while the hundreds of block transfers a round
// begins allocate nothing. One allocation per transfer anywhere under the
// engine — pdm's dispatch, layout's scratch, the split-phase hand-offs —
// puts a round above 500.
func TestDecodeAllocIndependentOfRounds(t *testing.T) {
	const (
		v        = 4
		perVP    = 1 << 14 // 128 KiB of state per VP, 512 KiB swapped per round
		perRound = 32 << 10
		// mallocsPerRound sits between the engine's fixed cost per round
		// and one allocation per transfer.
		mallocsPerRound = 64
	)
	parts := cgm.Scatter(seq64(v*perVP), v)
	codec := wordcodec.I64{}
	for _, tc := range []struct {
		name    string
		seq     bool
		depth   int // 1: the synchronous schedule; 0: auto
		procs   int // GOMAXPROCS, which sets the workers per processor
		workers int
	}{
		{"seq/k=1", true, 1, 1, 1}, {"seq/auto", true, 0, 1, 1}, {"seq/auto/c=2", true, 0, 2, 2},
		{"par/k=1", false, 1, 1, 1}, {"par/auto", false, 0, 1, 1}, {"par/auto/c=2", false, 0, 4, 2},
		{"seq/auto/borrow", true, 0, 1, 1}, {"par/auto/c=2/borrow", false, 0, 4, 2},
	} {
		borrow := 0
		if strings.HasSuffix(tc.name, "/borrow") {
			borrow = perVP
		}
		total := func(rounds int) (uint64, uint64) {
			cfg := Config{V: v, P: 2, D: 2, B: 64, MaxMsgItems: 8, MaxCtxItems: perVP, PipelineDepth: tc.depth}
			run := RunPar[int64]
			if tc.seq {
				run = RunSeq[int64]
			}
			var before, after runtime.MemStats
			var res *Result[int64]
			var err error
			AtProcs(tc.procs, func() {
				runtime.ReadMemStats(&before)
				res, err = run(holdEcho{R: rounds, Borrow: borrow}, codec, cfg, parts)
				runtime.ReadMemStats(&after)
			})
			if err != nil {
				t.Fatalf("%s R=%d: %v", tc.name, rounds, err)
			}
			if res.Workers != tc.workers {
				t.Fatalf("%s R=%d: Workers = %d, want %d", tc.name, rounds, res.Workers, tc.workers)
			}
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		short, shortN := total(4)
		long, longN := total(16)
		if long > short+12*perRound {
			t.Errorf("%s: 12 more rounds allocated %d bytes (%d per round), want < %d per round",
				tc.name, long-short, (long-short)/12, perRound)
		}
		if longN > shortN+12*mallocsPerRound {
			t.Errorf("%s: 12 more rounds made %d allocations (%d per round), want < %d per round",
				tc.name, longN-shortN, (longN-shortN)/12, mallocsPerRound)
		}
	}
}
