package core

import (
	"fmt"
	"runtime"
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
		t.Run(fmt.Sprintf("gomaxprocs=%d", g), func(t *testing.T) { AtProcs(g, func() { arenaAliasSafety(t) }) })
	}
}

func arenaAliasSafety(t *testing.T) {
	const v, n = 4, 103
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(1000 + i)
	}
	parts := cgm.Scatter(in, v)
	ref, err := cgm.Run[int64](hostile{}, v, parts)
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
				res, err := RunSeq[int64](hostile{}, codec, cfg, parts)
				if err != nil {
					t.Fatalf("seq %s: %v", tag, err)
				}
				sameOutputs(t, "seq "+tag, res.Outputs, ref.Outputs)
				for _, p := range []int{1, 2, 4} {
					cfg.P = p
					res, err := RunPar[int64](hostile{}, codec, cfg, parts)
					if err != nil {
						t.Fatalf("par p=%d %s: %v", p, tag, err)
					}
					sameOutputs(t, fmt.Sprintf("par p=%d %s", p, tag), res.Outputs, ref.Outputs)
				}
			}
		}
	}
}

// holdEcho keeps its whole partition as state, untouched, sends four
// items to everyone in round 0 and echoes its inbox for R more rounds.
type holdEcho struct{ R int }

func (holdEcho) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (p holdEcho) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
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
// the workers and their channels are made once, at set-up.
func TestDecodeAllocIndependentOfRounds(t *testing.T) {
	const (
		v        = 4
		perVP    = 1 << 14 // 128 KiB of state per VP, 512 KiB swapped per round
		perRound = 32 << 10
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
	} {
		total := func(rounds int) uint64 {
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
				res, err = run(holdEcho{R: rounds}, codec, cfg, parts)
				runtime.ReadMemStats(&after)
			})
			if err != nil {
				t.Fatalf("%s R=%d: %v", tc.name, rounds, err)
			}
			if res.Workers != tc.workers {
				t.Fatalf("%s R=%d: Workers = %d, want %d", tc.name, rounds, res.Workers, tc.workers)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		short, long := total(4), total(16)
		if long > short+12*perRound {
			t.Errorf("%s: 12 more rounds allocated %d bytes (%d per round), want < %d per round",
				tc.name, long-short, (long-short)/12, perRound)
		}
	}
}
