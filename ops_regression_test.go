package repro

// The PDM accounting is the correctness contract of the simulation: the
// paper's theorems bound ParallelOps, and every performance optimisation
// of the hot path (persistent disk workers, pooled superstep scratch,
// bulk codecs, the window depth) must leave the counted operations
// bit-identical. The expected values below are pinned twice: as numbers,
// and as what an oracle that shares nothing with the engine derives — the
// program is run on the in-memory cgm runtime, its per-round context and
// message sizes are read off (costmodel.SizesOf), and the live-prefix
// transfers those sizes imply are replayed through layout: ⌈blocks/D⌉
// per striped context transfer, the request count of the busiest disk per
// inbox, outbox and routed batch (costmodel.Predict), for the transfers the engine
// makes: none for round 0's context-in, for a context a round left as it
// read it, or for an empty image. Until PR 22 every image moved whole and
// the numbers were the seed's (commit 32bc9f4: 1368 for the first two
// rows; 408 while contexts moved whether or not their reader needed
// them; 272, as 120 + 152 in four rounds, while the sort gathered its
// samples at VP 0 and bursts were cut at the first disk conflict, and as
// 80 + 192 while every image began with a count header, which took each
// 512-item context of the first two rows from 8 blocks to 9); MaxTracks
// is the footprint of the fixed addresses less what is never written: the
// highest track a written block takes. Each slot takes exactly its own
// tracks on a disk, in facing pairs whose live prefixes meet, so it fell
// by a track or two (296, 74, 114 and 101 below) when the padding that
// kept slots a pitch ≡ 1 (mod D) blocks apart went; no count moved.
// The balanced row was 921 = 288 + 633 in 210 tracks while every routed
// item carried a two-word tag and the context held tagged items: three
// words an item where the inner codec's one is all that moves now. Until
// a message's live prefix was cut at its last word, it reached a quarter
// block further (a guard that held counts steady across seeds), and the
// message columns below were 192, 192, 384, 48, 122, 79 and 63: every
// message within −B/4 … +3B/4 words of k blocks moved k + 1.

import (
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// oracle derives the context and message parallel I/Os and the round
// count of prog on the machine cfg describes (MaxMsgItems resolved; par
// selects RunPar) without the engine.
func oracle[T any](t *testing.T, prog cgm.Program[T], codec wordcodec.Codec[T], cfg core.Config, par bool, parts [][]T) (ctx, msg int64, rounds int) {
	t.Helper()
	sz, ref, err := costmodel.SizesOf(prog, codec, cfg.V, parts)
	if err != nil {
		t.Fatalf("in-memory reference: %v", err)
	}
	ctx, msg = predict(cfg, par, codec.Words(), sz, ref.Stats.Rounds)
	return ctx, msg, ref.Stats.Rounds
}

// predict is oracle's derivation from sizes already read off: items of
// words words, in a run of rounds compound rounds.
func predict(cfg core.Config, par bool, words int, sz *costmodel.Sizes, rounds int) (ctx, msg int64) {
	m := costmodel.Machine{Par: par, V: cfg.V, P: cfg.P, D: cfg.D, B: cfg.B, Words: words,
		BPM: pdm.BlocksFor(cfg.MaxMsgItems*words, cfg.B), Rounds: rounds}
	return costmodel.Predict(m, sz)
}

// sortOracle is oracle for sortalg.EMSort's machine: PSRS under RunPar,
// lifted through BalancedRouting when cfg says so.
func sortOracle(t *testing.T, keys []int64, cfg core.Config) (ctx, msg int64, rounds int) {
	t.Helper()
	cfg = sortalg.EMSortConfig(cfg, len(keys))
	var prog cgm.Program[int64] = sortalg.Sorter[int64]{}
	if cfg.Balanced {
		prog = balance.Wrap(prog)
	}
	return oracle(t, prog, wordcodec.I64{}, cfg, true, cgm.Scatter(keys, cfg.V))
}

func TestIOOpsMatchSeed(t *testing.T) {
	type want struct {
		parallelOps, ctxOps, msgOps int64
		rounds, maxTracks           int
	}
	cases := []struct {
		name          string
		v, p, d, b, n int
		balanced      bool
		want          want
	}{
		{"sort-seq", 8, 1, 2, 64, 1 << 12, false, want{223, 64, 159, 3, 295}},
		{"sort-par", 8, 4, 2, 64, 1 << 12, false, want{228, 64, 164, 3, 73}},
		{"sort-par-balanced", 8, 4, 2, 64, 1 << 12, true, want{403, 96, 307, 5, 74}},
		{"sort-seq-D3", 4, 1, 3, 32, 1 << 10, false, want{71, 24, 47, 3, 113}},
		{"sort-par-D1", 4, 2, 1, 32, 1 << 10, false, want{174, 64, 110, 3, 137}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			keys := workload.Int64s(7, c.n)
			cfg := core.Config{V: c.v, P: c.p, D: c.d, B: c.b, Balanced: c.balanced}
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, msg, rounds := sortOracle(t, keys, cfg)
			if derived := (want{ctx + msg, ctx, msg, rounds, c.want.maxTracks}); derived != c.want {
				t.Errorf("the oracle derives %+v, pinned %+v", derived, c.want)
			}
			if res.IO.ParallelOps != c.want.parallelOps {
				t.Errorf("ParallelOps = %d, pinned %d", res.IO.ParallelOps, c.want.parallelOps)
			}
			if res.CtxOps != c.want.ctxOps {
				t.Errorf("CtxOps = %d, pinned %d", res.CtxOps, c.want.ctxOps)
			}
			if res.MsgOps != c.want.msgOps {
				t.Errorf("MsgOps = %d, pinned %d", res.MsgOps, c.want.msgOps)
			}
			if res.Rounds != c.want.rounds {
				t.Errorf("Rounds = %d, pinned %d", res.Rounds, c.want.rounds)
			}
			if res.MaxTracks != c.want.maxTracks {
				t.Errorf("MaxTracks = %d, pinned %d", res.MaxTracks, c.want.maxTracks)
			}
		})
	}

	t.Run("permute-par", func(t *testing.T) {
		const n = 1 << 10
		vals := workload.Int64s(3, n)
		dests := workload.Permutation(4, n)
		// MaxMsgItems is the slack rule 4·N/v² + v + 16 that sized every
		// permutation's slots until EMPermute counted its messages; set in
		// the Config, it overrides the derived bound and keeps this arm's
		// count, and the oracle is given the same Config.
		cfg := core.Config{V: 4, P: 2, D: 2, B: 32, MaxMsgItems: 4*(n/16) + 4 + 16}
		_, res, err := permute.EMPermute(vals, dests, cfg)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]permute.Item, n)
		for i := range items {
			items[i] = permute.Item{Dest: dests[i], Val: vals[i]}
		}
		ctx, msg, _ := oracle[permute.Item](t, permute.New(n), permute.Codec{}, cfg, true, cgm.Scatter(items, cfg.V))
		// Round 0 sends every item away and the terminal round keeps what
		// arrives: no context is ever on disk.
		if ctx != 0 || msg != 73 {
			t.Errorf("the oracle derives (ctx %d, msg %d), pinned (ctx 0, msg 73)", ctx, msg)
		}
		if res.IO.ParallelOps != 73 || res.CtxOps != 0 || res.MsgOps != 73 {
			t.Errorf("ops = (%d, ctx %d, msg %d), pinned (73, ctx 0, msg 73)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps)
		}
	})

	// The bound EMPermute derives itself: the largest message of the
	// (source VP, owner) table, counted here from the destinations. The
	// oracle is given the same Config. On the random permutation of the arm
	// above, the slots shrink from 276 items to 71: every message moves the
	// blocks it moved there, so the count is the same, and only the tracks
	// the slots take fall, from 165 to 61. The identity sends one message
	// of 256 items, exactly 16 blocks, from each VP, which fills its slot:
	// a live prefix is the blocks its items reach, in this slot as in any
	// larger one. (The slot held a quarter block more, 75 and 260 items,
	// while a prefix reached that far past its last word: 79 and 72
	// operations, the identity's in 157 tracks.)
	t.Run("permute-par-derived", func(t *testing.T) {
		const n, v, b = 1 << 10, 4, 32
		vals := workload.Int64s(3, n)
		id := make([]int64, n)
		for i := range id {
			id[i] = int64(i)
		}
		for _, c := range []struct {
			name           string
			dests          []int64
			slot           int
			ops, maxTracks int64
		}{
			{"random", workload.Permutation(4, n), 71, 73, 61},
			{"identity", id, 256, 64, 155},
		} {
			largest := 0
			for src := range v {
				lo, hi := cgm.PartRange(n, v, src)
				sizes := make([]int, v)
				for _, d := range c.dests[lo:hi] {
					sizes[cgm.Owner(n, v, int(d))]++
				}
				largest = max(largest, slices.Max(sizes))
			}
			cfg := core.Config{V: v, P: 2, D: 2, B: b}
			_, res, err := permute.EMPermute(vals, c.dests, cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			items := make([]permute.Item, n)
			for i := range items {
				items[i] = permute.Item{Dest: c.dests[i], Val: vals[i]}
			}
			cfg.MaxMsgItems = largest
			ctx, msg, _ := oracle[permute.Item](t, permute.New(n), permute.Codec{}, cfg, true, cgm.Scatter(items, cfg.V))
			if ctx != 0 || msg != c.ops || cfg.MaxMsgItems != c.slot {
				t.Errorf("%s: the oracle derives (ctx %d, msg %d) at MaxMsgItems %d, pinned (ctx 0, msg %d) at %d",
					c.name, ctx, msg, cfg.MaxMsgItems, c.ops, c.slot)
			}
			if res.IO.ParallelOps != c.ops || res.CtxOps != 0 || res.MsgOps != c.ops || int64(res.MaxTracks) != c.maxTracks {
				t.Errorf("%s: ops = (%d, ctx %d, msg %d), MaxTracks %d, pinned (%d, ctx 0, msg %d), MaxTracks %d",
					c.name, res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.MaxTracks, c.ops, c.ops, c.maxTracks)
			}
		}
	})

	// The file-backed disks must count exactly as MemDisk in every mode:
	// buffered or O_DIRECT, synchronous (depth 1) or windowed (auto depth)
	// schedule, the batched vectored path included. Accounting is charged at operation begin, so
	// none of the backend mechanics may show up in the PDM measure.
	t.Run("filedisk-modes", func(t *testing.T) {
		seed := cases[0].want // the sort-seq case above
		keys := workload.Int64s(7, 1<<12)
		modes := []struct {
			name   string
			direct bool
			depth  int
		}{
			{"buffered-sync", false, 1},
			{"buffered-pipelined", false, 0}, // auto: 2 through the page cache
			{"buffered-deep", false, 8},
			{"direct-pipelined", true, 0},
		}
		for _, m := range modes {
			t.Run(m.name, func(t *testing.T) {
				dir := t.TempDir()
				if m.direct && !pdm.DirectIOSupported(dir, 64) {
					t.Skip("filesystem does not support O_DIRECT")
				}
				cfg := core.Config{
					V: 8, P: 1, D: 2, B: 64,
					DiskDir: dir, DirectIO: m.direct, PipelineDepth: m.depth,
				}
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := want{res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks}
				if got != seed {
					t.Errorf("ops = %+v, pinned %+v", got, seed)
				}
				if res.Syscalls < 1 {
					t.Errorf("Syscalls = %d, want > 0 on file-backed disks", res.Syscalls)
				}
			})
		}
	})

	t.Run("runseq-direct", func(t *testing.T) {
		const n = 1 << 11
		keys := workload.Int64s(9, n)
		cfg := sortalg.EMSortConfig(core.Config{V: 4, P: 1, D: 2, B: 64}, n)
		res, err := core.RunSeq[int64](sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, cgm.Scatter(keys, 4))
		if err != nil {
			t.Fatal(err)
		}
		// Algorithm 2 proper: the single-copy matrix, no route phase.
		ctx, msg, _ := oracle[int64](t, sortalg.Sorter[int64]{}, wordcodec.I64{}, cfg, false, cgm.Scatter(keys, 4))
		if ctx != 32 || msg != 60 {
			t.Errorf("the oracle derives (ctx %d, msg %d), pinned (ctx 32, msg 60)", ctx, msg)
		}
		if res.IO.ParallelOps != 92 || res.CtxOps != 32 || res.MsgOps != 60 || res.MaxTracks != 99 {
			t.Errorf("ops = (%d, ctx %d, msg %d, tracks %d), pinned (92, ctx 32, msg 60, tracks 99)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.MaxTracks)
		}
	})

	// The depth-k sliding window only reorders operation begins — the
	// operation multiset, and with it every count above, is pinned at
	// every window depth, at p = 1 and p = 4 alike.
	t.Run("depth-invariance", func(t *testing.T) {
		// The sort-seq and sort-par counts above, per p.
		seeds := map[int]want{1: cases[0].want, 4: cases[1].want}
		keys := workload.Int64s(7, 1<<12)
		for _, k := range []int{1, 2, 4, 8} {
			for p, seed := range seeds {
				cfg := core.Config{V: 8, P: p, D: 2, B: 64, PipelineDepth: k}
				_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
				if err != nil {
					t.Fatalf("k=%d p=%d: %v", k, p, err)
				}
				got := want{res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.Rounds, res.MaxTracks}
				if got != seed {
					t.Errorf("k=%d p=%d: ops = %+v, pinned %+v", k, p, got, seed)
				}
			}
		}
	})
}
