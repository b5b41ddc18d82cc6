package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// touch is a family of four-round programs that differ in what round 1
// does to the context, one member per way a round can leave it:
//
//	'a'  reads it and leaves it alone;
//	'b'  changes exactly one item of VP who's, in place — the same slice,
//	     the same length, one word different;
//	'c'  sends every item away and keeps an empty context, which round 2
//	     regrows from what arrived;
//	'd'  replaces it with a new slice of the same length and different
//	     words.
//
// Round 0 sends each VP's first item to its neighbour and round 1 forwards
// what arrived, so messages flow throughout; neither touches the context,
// nor does round 2 of 'a', 'b' and 'd' or the terminal round 3.
type touch struct {
	kind byte
	who  int
}

func (touch) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (p touch) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	var got []int64
	for _, m := range inbox {
		got = append(got, m...)
	}
	out := make([][]int64, vp.V)
	next := (vp.ID + 1) % vp.V
	switch round {
	case 0:
		if len(vp.State) > 0 {
			out[next] = []int64{vp.State[0]}
		}
	case 1:
		out[next] = got
		switch p.kind {
		case 'b':
			if vp.ID == p.who {
				vp.State[len(vp.State)/2] ^= 1
			}
		case 'c':
			out[next] = append(got, vp.State...)
			vp.State = vp.State[:0]
		case 'd':
			fresh := make([]int64, len(vp.State))
			for i, x := range vp.State {
				fresh[i] = x + 1
			}
			vp.State = fresh
		}
	case 2:
		if p.kind == 'c' {
			vp.State = append(vp.State, got...)
		}
	default:
		return nil, true
	}
	return out, false
}

func (touch) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// MaxContextItems declares μ = 2n + 8, as ragged does.
func (touch) MaxContextItems(n, v int) int { return 2*n + 8 }

// wrote is the family's own account of which rounds leave VP j a context
// that is not, word for word, the one they found — stated from the
// program text above, not from the codec, the engine or the predictor.
// Round 0 always does: what it found was never on disk.
func (p touch) wrote(round, j int) bool {
	switch round {
	case 0:
		return true
	case 1:
		return p.kind == 'c' || p.kind == 'd' || p.kind == 'b' && j == p.who
	case 2:
		return p.kind == 'c'
	}
	return false
}

// TestWhatIsNotMoved holds the engine to the three rules of DESIGN.md §18
// "What is not moved" on the random machines of TestLivePrefixProperties,
// for every member of the touch family. Through livePrefixArms: outputs
// equal the in-memory runtime's, counts equal the engine-free oracle's at
// ring depth 1, 2, 4, 8 and auto, stay under the full-image bound, and the
// ledger reconciles. Row by row, against nothing but the context sizes of
// the in-memory run and wrote: round 0 begins no context read; a round
// that leaves a context alone begins no write of it ('a', and every VP of
// 'b' but one); a context changed in place or replaced at the same length
// is written ('b', 'd'); an empty one moves no block in either direction
// ('c'). A last machine with p = 4 always runs, so that the race detector
// sees Init on four processor goroutines.
func TestWhatIsNotMoved(t *testing.T) {
	check := func(tag string, base core.Config, parts [][]int64) {
		who := -1
		for j := len(parts) - 1; j >= 0; j-- {
			if len(parts[j]) > 0 {
				who = j
			}
		}
		// 'd' before 'b', so that a compare that skips the words fails on the
		// member that only it can fail (make contract-selftest).
		for _, kind := range "acdb" {
			prog := touch{kind: byte(kind), who: who}
			ktag := fmt.Sprintf("%s kind=%c who=%d", tag, kind, who)
			sz, ref, err := costmodel.SizesOf[int64](prog, wordcodec.I64{}, base.V, parts)
			if err != nil {
				t.Fatalf("%s: in-memory reference: %v", ktag, err)
			}
			arm := func(atag string, cfg core.Config, par bool) {
				_, rows := livePrefixArms(t, atag, prog, cfg, par, parts, ref.Outputs)
				if !cfg.Balanced { // a balanced run's rounds are not the program's
					touchRows(t, atag, prog, cfg, par, sz, rows)
				}
			}
			arm(ktag+" seq", base, false)
			one := base
			one.P = 1
			arm(ktag+" par p=1", one, true)
			if base.P > 1 {
				arm(ktag+" par", base, true)
			}
		}
	}
	forRandomMachines(23, func(_ *rand.Rand, tag string, base core.Config, parts [][]int64) {
		check(tag, base, parts)
	})
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(i)*7 + 1
	}
	check("p=4", core.Config{V: 8, P: 4, D: 2, B: 8, MaxMsgItems: 201, CheckedIO: true},
		cgm.Scatter(keys, 8))
}

// touchRows checks the context operations of every recorded superstep row
// of a touch run: the read of what the round found, unless it is round 0,
// plus the write of what it left, if wrote says it left something new.
func touchRows(t *testing.T, tag string, prog touch, cfg core.Config, par bool, sz *costmodel.Sizes, rows []obs.SuperstepIO) {
	t.Helper()
	ops := func(items int) int64 {
		if items == 0 {
			return 0
		}
		return int64((pdm.BlocksFor(items, cfg.B) + cfg.D - 1) / cfg.D)
	}
	seen := 0
	for _, row := range rows {
		if row.Label != "superstep" {
			continue
		}
		seen++
		var want int64
		if row.Round > 0 {
			want = ops(sz.Ctx[row.Round][row.VP])
		}
		if prog.wrote(row.Round, row.VP) {
			want += ops(sz.Ctx[row.Round+1][row.VP])
		}
		if row.CtxOps != want {
			t.Errorf("%s: round %d vp %d began %d context ops, want %d (found %d items, left %d, wrote=%v)", tag,
				row.Round, row.VP, row.CtxOps, want, sz.Ctx[row.Round][row.VP], sz.Ctx[row.Round+1][row.VP],
				prog.wrote(row.Round, row.VP))
		}
	}
	if seen != 4*cfg.V {
		t.Errorf("%s: %d superstep rows, want %d", tag, seen, 4*cfg.V)
	}
}
