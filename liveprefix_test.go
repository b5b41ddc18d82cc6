package repro

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// ragged keeps changing what it holds: every round each VP sends the items
// divisible by three (after a per-round shift) to one of two neighbours —
// every other message is empty, and a VP with no such item sends nothing —
// and appends what it received to what it kept, so contexts and messages
// grow, shrink and vanish from round to round. It finishes after R rounds.
type ragged struct{ R int }

func (ragged) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }

func (p ragged) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	keep := vp.State[:0:0]
	for _, m := range inbox {
		keep = append(keep, m...)
	}
	if round == p.R {
		vp.State = append(keep, vp.State...)
		return nil, true
	}
	var out [][]int64
	for _, x := range vp.State {
		if (x+int64(round))%3 != 0 {
			keep = append(keep, x)
			continue
		}
		if out == nil {
			out = make([][]int64, vp.V)
		}
		dst := (vp.ID + 1 + int(x&1)) % vp.V
		out[dst] = append(out[dst], x)
	}
	vp.State = keep
	return out, false
}

func (ragged) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// MaxContextItems declares μ = 2n + 8, above anything a context holds:
// items only move between VPs, so none holds more than the n of the input.
func (ragged) MaxContextItems(n, v int) int { return 2*n + 8 }

// TestLivePrefixProperties drives the live-prefix transfer over random
// legal machines — v = 1 and p = v included, skewed and empty partitions,
// balanced routing, checked I/O — and holds every run
// to what does not depend on the engine: the outputs of the in-memory
// runtime; the context and message parallel I/Os an oracle derives from
// that run's sizes (see oracle); the ledger's own reconciliation; and the
// Theorem 2/3 full-image count — every context run and message slot moved
// whole, the inputs distributed through disk, the terminal round's
// contexts written — as an upper bound. The schedule must stay invisible:
// every count is the same at ring depth 1, 2, 4, 8 and auto, and Algorithm 2 moves the blocks and pays the context I/O
// that Algorithm 3 does at p = 1 (their message packing differs, as it
// always has: one FIFO sequence per outbox against one per routed batch).
func TestLivePrefixProperties(t *testing.T) {
	forRandomMachines(22, func(rng *rand.Rand, tag string, base core.Config, parts [][]int64) {
		prog := ragged{R: 1 + rng.Intn(4)}
		tag = fmt.Sprintf("%s R=%d", tag, prog.R)
		v, p := base.V, base.P
		ref, err := cgm.Run[int64](prog, v, parts)
		if err != nil {
			t.Fatalf("%s: in-memory reference: %v", tag, err)
		}
		seq, _ := livePrefixArms(t, tag+" seq", prog, base, false, parts, ref.Outputs)
		par1 := base
		par1.P = 1
		one, _ := livePrefixArms(t, tag+" par p=1", prog, par1, true, parts, ref.Outputs)
		if seq.CtxOps != one.CtxOps || seq.IO.BlocksMoved != one.IO.BlocksMoved || seq.Rounds != one.Rounds {
			t.Errorf("%s: Algorithm 2 pays %d context ops and moves %d blocks in %d rounds, Algorithm 3 at p = 1 %d, %d and %d",
				tag, seq.CtxOps, seq.IO.BlocksMoved, seq.Rounds, one.CtxOps, one.IO.BlocksMoved, one.Rounds)
		}
		if p > 1 {
			livePrefixArms(t, tag+" par", prog, base, true, parts, ref.Outputs)
		}
	})
}

// forRandomMachines calls f on 60 random legal machines with an input
// each: v = 1 and p = v included, skewed and empty partitions, balanced
// routing, checked I/O. f may draw from rng.
func forRandomMachines(seed int64, f func(rng *rand.Rand, tag string, base core.Config, parts [][]int64)) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	for trial := 0; trial < 60; trial++ {
		v := pick(1, 2, 4, 8)
		p := pick(1, 2, 4)
		for v%p != 0 {
			p /= 2
		}
		n := rng.Intn(400)
		base := core.Config{V: v, P: p, D: pick(1, 2, 3, 4), B: pick(4, 8, 16, 32),
			MaxMsgItems: n + 1, Balanced: rng.Intn(4) == 0, CheckedIO: rng.Intn(2) == 0}
		in := make([]int64, n)
		for i := range in {
			in[i] = rng.Int63n(1 << 20)
		}
		parts := cgm.Scatter(in, v)
		if v > 1 && rng.Intn(2) == 0 { // skew: one partition takes a neighbour's items
			a := rng.Intn(v)
			b := (a + 1) % v
			parts[b], parts[a] = append(parts[b], parts[a]...), nil
		}
		tag := fmt.Sprintf("trial %d (v=%d p=%d D=%d B=%d n=%d balanced=%v checked=%v)",
			trial, v, p, base.D, base.B, n, base.Balanced, base.CheckedIO)
		f(rng, tag, base, parts)
	}
}

// livePrefixArms runs one machine of TestLivePrefixProperties at ring
// depth 1, 2, 4, 8 and auto and returns the depth-1 result with its
// recorded rows. Auto is 2 on these in-memory disks, so 8 is the arm that
// holds the deep ring to the oracle.
func livePrefixArms(t *testing.T, tag string, prog cgm.Program[int64], cfg core.Config, par bool,
	parts, want [][]int64) (*core.Result[int64], []obs.SuperstepIO) {
	t.Helper()
	if !par {
		cfg.P = 1
	}
	// The oracle prices the program as the engine runs it: lifted through
	// BalancedRouting when cfg says so, on the inner codec either way.
	oprog := prog
	if cfg.Balanced {
		oprog = balance.Wrap(prog)
	}
	ctx, msg, rounds := oracle(t, oprog, wordcodec.I64{}, cfg, par, parts)

	var first *core.Result[int64]
	var rows []obs.SuperstepIO
	for _, k := range []int{1, 2, 4, 8, 0} {
		ktag := fmt.Sprintf("%s k=%d", tag, k)
		cfg.PipelineDepth = k
		cfg.Recorder = obs.NewRecorder()
		cfg.Ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
		run := core.RunSeq[int64]
		if par {
			run = core.RunPar[int64]
		}
		res, err := run(prog, wordcodec.I64{}, cfg, parts)
		if err != nil {
			t.Fatalf("%s: %v", ktag, err)
		}
		for j := range want {
			if !slices.Equal(res.Outputs[j], want[j]) {
				t.Fatalf("%s: vp %d output differs from the in-memory runtime's", ktag, j)
			}
		}
		if err := cfg.Ledger.Reconcile(); err != nil {
			t.Errorf("%s: ledger: %v", ktag, err)
		}
		if res.CtxOps != ctx || res.MsgOps != msg || res.IO.ParallelOps != ctx+msg || res.Rounds != rounds {
			t.Errorf("%s: %d context + %d message ops = %d in %d rounds, the oracle derives %d + %d in %d",
				ktag, res.CtxOps, res.MsgOps, res.IO.ParallelOps, res.Rounds, ctx, msg, rounds)
		}
		if k == 1 {
			first, rows = res, cfg.Recorder.Supersteps()
			m := cfg.Ledger.Runs()[0].Machine
			if full := fullImageOps(m, cfg.MaxMsgItems); res.IO.ParallelOps > full {
				t.Errorf("%s: %d parallel I/Os, above the full-image count %d", ktag, res.IO.ParallelOps, full)
			}
			if m.Words != 1 {
				t.Errorf("%s: ledger records %d words per item, want 1", ktag, m.Words)
			}
			continue
		}
		if res.IO != first.IO || res.CtxOps != first.CtxOps || res.MsgOps != first.MsgOps || res.MaxTracks != first.MaxTracks {
			t.Errorf("%s: IO %+v (%d ctx, %d msg, %d tracks), depth 1 counted %+v (%d, %d, %d)", ktag,
				res.IO, res.CtxOps, res.MsgOps, res.MaxTracks, first.IO, first.CtxOps, first.MsgOps, first.MaxTracks)
		}
	}
	return first, rows
}

// fullImageOps is the Theorem 2/3 count the engine paid until PR 22, when
// every transfer moved its whole fixed-address image: machine m with
// every context filling its run of m.CB blocks and every message at the
// slot bound maxMsg, plus the three context passes the engine no longer
// makes at any size — the input distribution's write, round 0's read of
// it, and the terminal round's write.
func fullImageOps(m costmodel.Machine, maxMsg int) int64 {
	full := costmodel.NewSizes(m.V)
	for r := 0; r < m.Rounds; r++ {
		full.AddRound()
	}
	for _, row := range full.Ctx {
		for j := range row {
			row[j] = m.CB * m.B / m.Words
		}
	}
	for _, row := range full.Msg {
		for i := range row {
			row[i] = maxMsg
		}
	}
	ctx, msg := costmodel.Predict(m, full)
	ctx += 3 * int64(m.V) * int64((m.CB+m.D-1)/m.D)
	return ctx + msg
}

// TestCountMatchesOracleEverySeed holds each seed's count to the oracle's
// derivation for that seed's sizes (ops_regression_test.go's predict). A
// message's live prefix is the blocks its items reach, so with N, v and B
// powers of two the messages of the sort's all-to-all, which average an
// exact number of blocks — here 2048 items, two blocks of 1024 — move two
// blocks for those at or under the mean and three for the rest, a
// different set for every input: the count moves with the seed (355–365
// over these eight), and it is exact at every one of them, on both
// machines. The messages are checked to straddle the boundary, so both
// sizes of prefix are moved.
func TestCountMatchesOracleEverySeed(t *testing.T) {
	const n, v = 1 << 17, 8
	for seed := int64(1); seed <= 8; seed++ {
		keys := workload.Int64s(seed, n)
		cfg := sortalg.EMSortConfig(core.Config{V: v, P: 1, D: 2, B: 1024}, n)
		sz, ref, err := costmodel.SizesOf[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, v, cgm.Scatter(keys, v))
		if err != nil {
			t.Fatal(err)
		}
		// The all-to-all is the round that sends the most, whichever it is.
		buckets := slices.MaxFunc(sz.Msg, func(a, b []int) int { return cmp.Compare(sum(a), sum(b)) })
		if lo, hi := slices.Min(buckets), slices.Max(buckets); lo >= n/(v*v) || hi <= n/(v*v) {
			t.Fatalf("seed %d: messages of %d..%d items do not straddle the block boundary at %d", seed, lo, hi, n/(v*v))
		}
		for _, par := range []bool{false, true} {
			run := core.RunSeq[int64]
			if par {
				run = core.RunPar[int64]
			}
			res, err := run(sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, v))
			if err != nil {
				t.Fatal(err)
			}
			ctx, msg := predict(cfg, par, 1, sz, ref.Stats.Rounds)
			if res.IO.ParallelOps != ctx+msg || res.CtxOps != ctx || res.MsgOps != msg {
				t.Errorf("par=%v seed %d: %d parallel I/Os (%d ctx, %d msg), the oracle derives %d (%d, %d)",
					par, seed, res.IO.ParallelOps, res.CtxOps, res.MsgOps, ctx+msg, ctx, msg)
			}
		}
	}
}

func sum(xs []int) (total int) {
	for _, x := range xs {
		total += x
	}
	return total
}
