package repro

// The PDM accounting is the correctness contract of the simulation: the
// paper's theorems bound ParallelOps, and every performance optimisation
// of the hot path (persistent disk workers, pooled superstep scratch,
// bulk codecs) must leave the counted operations bit-identical. The
// expected values below were captured from the seed implementation
// (commit 32bc9f4, goroutine-per-op dispatch and per-round allocation)
// and pin the cost model in place.

import (
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

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
		{"sort-seq", 8, 1, 2, 64, 1 << 12, false, want{1368, 792, 576, 4, 297}},
		{"sort-par", 8, 4, 2, 64, 1 << 12, false, want{1368, 792, 576, 4, 75}},
		{"sort-par-balanced", 8, 4, 2, 64, 1 << 12, true, want{7296, 3840, 3456, 7, 213}},
		{"sort-seq-D3", 4, 1, 3, 32, 1 << 10, false, want{444, 252, 192, 4, 100}},
		{"sort-par-D1", 4, 2, 1, 32, 1 << 10, false, want{1332, 756, 576, 4, 142}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			keys := workload.Int64s(7, c.n)
			cfg := core.Config{V: c.v, P: c.p, D: c.d, B: c.b, Balanced: c.balanced}
			_, res, err := sortalg.EMSort(keys, wordcodec.I64{}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.IO.ParallelOps != c.want.parallelOps {
				t.Errorf("ParallelOps = %d, seed counted %d", res.IO.ParallelOps, c.want.parallelOps)
			}
			if res.CtxOps != c.want.ctxOps {
				t.Errorf("CtxOps = %d, seed counted %d", res.CtxOps, c.want.ctxOps)
			}
			if res.MsgOps != c.want.msgOps {
				t.Errorf("MsgOps = %d, seed counted %d", res.MsgOps, c.want.msgOps)
			}
			if res.Rounds != c.want.rounds {
				t.Errorf("Rounds = %d, seed counted %d", res.Rounds, c.want.rounds)
			}
			if res.MaxTracks != c.want.maxTracks {
				t.Errorf("MaxTracks = %d, seed counted %d", res.MaxTracks, c.want.maxTracks)
			}
		})
	}

	t.Run("permute-par", func(t *testing.T) {
		const n = 1 << 10
		vals := workload.Int64s(3, n)
		dests := workload.Permutation(4, n)
		_, res, err := permute.EMPermute(vals, dests, core.Config{V: 4, P: 2, D: 2, B: 32})
		if err != nil {
			t.Fatal(err)
		}
		if res.IO.ParallelOps != 468 || res.CtxOps != 180 || res.MsgOps != 288 {
			t.Errorf("ops = (%d, ctx %d, msg %d), seed counted (468, ctx 180, msg 288)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps)
		}
	})

	// The file-backed disks must count exactly as MemDisk in every mode:
	// buffered or O_DIRECT, synchronous (depth 1) or windowed (auto depth)
	// schedule, the batched vectored path included. Accounting is charged at operation begin, so
	// none of the backend mechanics may show up in the PDM measure.
	t.Run("filedisk-modes", func(t *testing.T) {
		seed := want{1368, 792, 576, 4, 297} // the sort-seq case above
		keys := workload.Int64s(7, 1<<12)
		modes := []struct {
			name   string
			direct bool
			depth  int
		}{
			{"buffered-sync", false, 1},
			{"buffered-pipelined", false, 0},
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
					t.Errorf("ops = %+v, seed counted %+v", got, seed)
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
		if res.IO.ParallelOps != 684 || res.CtxOps != 396 || res.MsgOps != 288 || res.MaxTracks != 94 {
			t.Errorf("ops = (%d, ctx %d, msg %d, tracks %d), seed counted (684, ctx 396, msg 288, tracks 94)",
				res.IO.ParallelOps, res.CtxOps, res.MsgOps, res.MaxTracks)
		}
	})

	// The depth-k sliding window only reorders operation begins — the
	// operation multiset, and with it every seed count above, is pinned
	// at every window depth, sequential and parallel drivers alike.
	t.Run("depth-invariance", func(t *testing.T) {
		// The sort-seq and sort-par seed counts above, per driver.
		seeds := map[int]want{
			1: {1368, 792, 576, 4, 297},
			4: {1368, 792, 576, 4, 75},
		}
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
					t.Errorf("k=%d p=%d: ops = %+v, seed counted %+v", k, p, got, seed)
				}
			}
		}
	})
}
