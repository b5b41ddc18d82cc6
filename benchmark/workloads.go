package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/rec"
	"repro/internal/sortalg"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// backend says what stands behind the machine's disks.
type backend int

const (
	memBackend    backend = iota // pdm.MemDisk: no device in the loop
	directBackend                // pdm.FileDisk under O_DIRECT in the scratch directory
	fileBackend                  // pdm.FileDisk there without O_DIRECT: the page cache, not the device
	modelBackend                 // pdm.MemDisk behind the sleeping seqModel
)

// seqModel is the device of sort_seq_model: positioning-dominated (1 ms
// per contiguous run, 0.33 ms per 4096-word track), so its wall is set by
// how well the driver coalesces and overlaps, and its sleeps are long
// enough for the runtime's timer granularity (about 1 ms here) to stay
// second-order.
var seqModel = pdm.TimeModel{Seek: time.Millisecond, TransferBytesPerSec: 100e6}

// spec is one workload: the machine it runs on and how to make its inputs.
type spec struct {
	name string
	why  string
	n    int         // items in, the N of items_per_s
	cfg  core.Config // V, P, D, B of the machine
	seq  bool        // the single-processor machine (core.RunSeq)
	kind backend
	// budget says that the disk, program and codec wrappers can all be
	// injected, so the traced run splits p·wall into layers.
	budget bool
	// listed says that BENCHMARK.json names the workload, so the acceptance
	// harness runs it: the ones whose wall is steady enough to gate on.
	listed bool
	// wallBound is how far the median wall_s (and items_per_s) may worsen
	// between two recordings before -compare calls it a regression.
	wallBound float64
	setup     func(s *spec, seed int64, e *env) *instance
}

// disks is the number of disks in the whole machine.
func (s *spec) disks() int { return s.cfg.P * s.cfg.D }

// instance is a workload with its inputs and reference output in memory.
type instance struct {
	// run executes the workload once, inputs in memory to outputs in
	// memory, and then checks the outputs against the reference. Only the
	// execution is timed. A non-nil tracer attaches the wrappers.
	run func(tr *tracer) (runInfo, error)
	// inmem executes the same program on the in-memory CGM runtime; nil
	// for a workload that is not a CGM program.
	inmem func() error
}

// runInfo is the program's own accounting of one run.
type runInfo struct {
	wall                                time.Duration
	io                                  pdm.IOStats
	ctxOps, msgOps, commItems, syscalls int64
	rounds, supersteps, maxTracks       int
	depth, passes                       int
}

// specs returns the workloads. div divides every N: 1 for the benchmark,
// larger for the tests.
//
// The sorts and the permutation run on one real processor with four disks.
// On the two cores this benchmark is sized for, a machine with p = 2 has
// two computing goroutines and four disk workers runnable at once, and its
// wall then follows whatever else the host runs (README.md, "Steadiness"):
// with p = 1 the same layers run and one core is left for the rest.
// BENCHMARK.json lists the workloads whose wall is the program's: not the
// two on O_DIRECT, whose wall is the shared virtual disk's, for which
// sort_file stands in, and not listrank_mem, whose wall is goroutine
// hand-off latency at either p (it keeps the ISSUE's p = 2 machine).
func specs(div int) []*spec {
	par := core.Config{V: 16, P: 1, D: 4, B: 512}
	return []*spec{
		{
			name: "sort_mem", n: 1 << 22 / div, cfg: par, kind: memBackend, budget: true, listed: true, wallBound: 0.10, setup: setupSort,
			why: "sortalg.EMSort of 2^22 int64 on V16 P1 D4 B512 MemDisk: no device, so compute, the par driver, decode allocation and GC decide it",
		},
		{
			name: "sort_direct", n: 1 << 22 / div, cfg: par, kind: directBackend, budget: true, wallBound: 0.15, setup: setupSort,
			why: "the same sort on O_DIRECT file disks: batching, syscalls, stall and overlap decide it; minus sort_mem it is the cost of the device",
		},
		{
			name: "sort_file", n: 1 << 22 / div, cfg: par, kind: fileBackend, budget: true, listed: true, wallBound: 0.10, setup: setupSort,
			why: "the same sort on buffered file disks: pdm's FileDisk path (batching, syscalls per parallel I/O) against the page cache, so without the shared virtual disk's swings",
		},
		{
			name: "sort_seq_model", n: 1 << 19 / div, cfg: core.Config{V: 8, P: 1, D: 2, B: 4096}, seq: true, kind: modelBackend, budget: true, listed: true, wallBound: 0.10, setup: setupSort,
			why: "core.RunSeq sort of 2^19 on V8 D2 B4096 model disks (1 ms seek, 100 MB/s): deterministic positioning-bound device isolates coalescing and overlap",
		},
		{
			name: "permute_mem", n: 1 << 22 / div, cfg: par, kind: memBackend, budget: true, listed: true, wallBound: 0.10, setup: setupPermute,
			why: "permute.EMPermute of 2^22 on V16 P1 D4 B512 MemDisk: sort_mem's layers without compute and with a 2-word per-item codec",
		},
		{
			name: "listrank_mem", n: 1 << 15 / div, cfg: core.Config{V: 16, P: 2, D: 2, B: 512}, kind: memBackend, wallBound: 0.10, setup: setupListRank,
			why: "graph.ListRank of 2^15 nodes on rec.NewEM(16,2,2,512): 33 short rounds, so barriers, run start-up and the 7-word rec.Codec decide it",
		},
		{
			name: "extsort_direct", n: 1 << 22 / div, cfg: core.Config{P: 1, D: 4, B: 512}, kind: directBackend, wallBound: 0.15, setup: setupExtSort,
			why: "sortalg.MergeSort of the same 2^22 keys, M=N/8, on one array of 4 O_DIRECT disks: the PDM baseline, through pdm's synchronous path",
		},
	}
}

// env is what the workloads share: the scratch directory of this process.
type env struct {
	dir      string // removed when the process exits
	directIO bool   // what the last O_DIRECT probe of dir said
	warned   bool
}

// probe asks whether dir gives O_DIRECT at block size b. Where it does
// not, the direct workloads run buffered and say so.
func (e *env) probe(b int) {
	e.directIO = pdm.DirectIOSupported(e.dir, b)
	if !e.directIO && !e.warned {
		e.warned = true
		fmt.Fprintf(os.Stderr, "benchmark: warning: no O_DIRECT in %s; the *_direct workloads run buffered and measure the page cache\n", e.dir)
	}
}

func (e *env) diskPath(proc, disk int) string {
	return filepath.Join(e.dir, fmt.Sprintf("p%d-d%d.disk", proc, disk))
}

func newModelDisk(b int) *pdm.DelayDisk { return pdm.NewModelDisk(pdm.NewMemDisk(b), seqModel) }

// newDisk makes one unwrapped disk of the given backend.
func (e *env) newDisk(kind backend, b, proc, disk int) (pdm.BatchDisk, error) {
	switch kind {
	case directBackend:
		return pdm.NewFileDiskOpts(e.diskPath(proc, disk), b, pdm.FileDiskOptions{DirectIO: e.directIO})
	case fileBackend:
		return pdm.NewFileDiskOpts(e.diskPath(proc, disk), b, pdm.FileDiskOptions{})
	case modelBackend:
		return newModelDisk(b), nil
	default:
		return pdm.NewMemDisk(b), nil
	}
}

// withDisks points cfg at the backend. An untraced run uses the public
// configuration a caller would (nothing for memory, DiskDir for files); a
// traced run must construct the disks itself to wrap them, and attaches
// the tracer's recorder and ledger.
func (e *env) withDisks(cfg core.Config, kind backend, tr *tracer) core.Config {
	if tr == nil {
		switch kind {
		case directBackend:
			cfg.DiskDir, cfg.DirectIO = e.dir, e.directIO
		case fileBackend:
			cfg.DiskDir = e.dir
		case modelBackend:
			cfg.NewDisk = func(int, int) pdm.Disk { return newModelDisk(cfg.B) }
		}
		return cfg
	}
	cfg.NewDisk = func(proc, disk int) pdm.Disk {
		inner, err := e.newDisk(kind, cfg.B, proc, disk)
		if err != nil {
			// A disk constructor cannot return an error: note it, which
			// fails the iteration, and let the run finish in memory.
			tr.fail(err)
			inner = pdm.NewMemDisk(cfg.B)
		}
		return tracedDisk{inner: inner, tr: tr}
	}
	cfg.Recorder, cfg.Ledger = tr.rec, tr.ledger
	return cfg
}

func resultInfo[T any](res *core.Result[T], wall time.Duration) runInfo {
	return runInfo{
		wall: wall, io: res.IO,
		ctxOps: res.CtxOps, msgOps: res.MsgOps, commItems: res.CommItems, syscalls: res.Syscalls,
		rounds: res.Rounds, supersteps: res.Supersteps, maxTracks: res.MaxTracks, depth: res.Depth,
	}
}

// setupSort serves the four sort workloads: sortalg.Sorter on the
// parallel machine (through sortalg.EMSort when untraced, as a caller
// would) or on the sequential one.
func setupSort(s *spec, seed int64, e *env) *instance {
	keys := workload.Int64s(seed, s.n)
	want := slices.Clone(keys)
	slices.Sort(want)
	if s.kind == directBackend {
		e.probe(s.cfg.B)
	}
	v := s.cfg.V
	run := func(tr *tracer) (runInfo, error) {
		cfg := sortalg.EMSortConfig(e.withDisks(s.cfg, s.kind, tr), len(keys))
		if err := cfg.Validate(); err != nil {
			return runInfo{}, err
		}
		var prog cgm.Program[int64] = sortalg.Sorter[int64]{}
		var codec wordcodec.Codec[int64] = wordcodec.I64{}
		if tr != nil {
			prog, codec = tracedProgram[int64]{prog, tr}, tracedCodec[int64]{codec, tr}
		}
		var (
			out []int64
			res *core.Result[int64]
			err error
		)
		start := time.Now()
		switch {
		case s.seq:
			if res, err = core.RunSeq(prog, codec, cfg, cgm.Scatter(keys, v)); err == nil {
				out = res.Output()
			}
		case tr == nil:
			out, res, err = sortalg.EMSort(keys, codec, cfg)
		default: // EMSort, with the wrapped program
			if res, err = core.RunPar(prog, codec, cfg, cgm.Scatter(keys, v)); err == nil {
				out = res.Output()
			}
		}
		wall := time.Since(start)
		if err != nil {
			return runInfo{}, err
		}
		if !slices.Equal(out, want) {
			return runInfo{}, errors.New("output differs from slices.Sort of the input")
		}
		return resultInfo(res, wall), nil
	}
	inmem := func() error {
		_, err := cgm.Run[int64](sortalg.Sorter[int64]{}, v, cgm.Scatter(keys, v))
		return err
	}
	return &instance{run: run, inmem: inmem}
}

func setupPermute(s *spec, seed int64, e *env) *instance {
	vals := workload.Int64s(seed, s.n)
	dests := workload.Permutation(seed+1, s.n)
	want := permute.Sequential(vals, dests)
	run := func(tr *tracer) (runInfo, error) {
		cfg := e.withDisks(s.cfg, s.kind, tr)
		if err := cfg.Validate(); err != nil {
			return runInfo{}, err
		}
		var (
			out []int64
			res *core.Result[permute.Item]
			err error
		)
		start := time.Now()
		if tr == nil {
			out, res, err = permute.EMPermute(vals, dests, cfg)
		} else {
			out, res, err = tracedPermute(vals, dests, cfg, tr)
		}
		wall := time.Since(start)
		if err != nil {
			return runInfo{}, err
		}
		if !slices.Equal(out, want) {
			return runInfo{}, errors.New("output differs from permute.Sequential")
		}
		return resultInfo(res, wall), nil
	}
	inmem := func() error {
		_, err := cgm.Run[permute.Item](permute.New(len(vals)), s.cfg.V, cgm.Scatter(permuteItems(vals, dests), s.cfg.V))
		return err
	}
	return &instance{run: run, inmem: inmem}
}

func permuteItems(vals, dests []int64) []permute.Item {
	items := make([]permute.Item, len(vals))
	for i := range items {
		items[i] = permute.Item{Dest: dests[i], Val: vals[i]}
	}
	return items
}

// tracedPermute is permute.EMPermute with the program and codec wrapped.
// EMPermute makes both itself, so the traced run has to repeat its lines
// around core.RunPar; the tests hold the two to the same I/O counts.
func tracedPermute(vals, dests []int64, cfg core.Config, tr *tracer) ([]int64, *core.Result[permute.Item], error) {
	n, v := len(vals), cfg.V
	items := permuteItems(vals, dests)
	cfg.MaxMsgItems = 4*((n+v*v-1)/(v*v)) + v + 16
	cfg.MaxHItems = 2*((n+v-1)/v) + v + 16
	res, err := core.RunPar[permute.Item](
		tracedProgram[permute.Item]{permute.New(n), tr},
		tracedCodec[permute.Item]{permute.Codec{}, tr},
		cfg, cgm.Scatter(items, v))
	if err != nil {
		return nil, nil, err
	}
	out := make([]int64, n)
	for i, it := range res.Output() {
		out[i] = it.Val
	}
	return out, res, nil
}

// setupListRank runs through rec.Exec, which builds its own core.Config:
// it takes a recorder and a ledger but no disk, program or codec wrapper.
func setupListRank(s *spec, seed int64, _ *env) *instance {
	succ, _ := workload.List(seed, s.n)
	want := graph.ListRankSeq(succ)
	run := func(tr *tracer) (runInfo, error) {
		ex := rec.NewEM(s.cfg.V, s.cfg.P, s.cfg.D, s.cfg.B)
		if tr != nil {
			ex.Recorder, ex.Ledger = tr.rec, tr.ledger
		}
		start := time.Now()
		rank, err := graph.ListRank(ex, succ)
		wall := time.Since(start)
		if err != nil {
			return runInfo{}, err
		}
		if !slices.Equal(rank, want) {
			return runInfo{}, errors.New("ranks differ from graph.ListRankSeq")
		}
		return runInfo{
			wall: wall, io: ex.IO,
			ctxOps: ex.CtxOps, msgOps: ex.MsgOps, commItems: ex.CommItems, syscalls: ex.Syscalls,
			rounds: ex.Rounds, supersteps: ex.Supersteps,
		}, nil
	}
	inmem := func() error {
		_, err := graph.ListRank(rec.NewMem(s.cfg.V), succ)
		return err
	}
	return &instance{run: run, inmem: inmem}
}

// setupExtSort is the baseline: no core, one disk array driven through
// pdm's synchronous ReadBlocks/WriteBlocks. Its output is checked by
// sortedness and an order-independent checksum of the keys.
func setupExtSort(s *spec, seed int64, e *env) *instance {
	keys := workload.Int64s(seed, s.n)
	recs := make([]pdm.Word, len(keys))
	var sum, xor pdm.Word
	for i, k := range keys {
		recs[i] = pdm.Word(k)
		sum += recs[i]
		xor ^= recs[i]
	}
	e.probe(s.cfg.B)
	run := func(tr *tracer) (runInfo, error) {
		start := time.Now()
		disks := make([]pdm.Disk, s.cfg.D)
		for i := range disks {
			d, err := e.newDisk(s.kind, s.cfg.B, 0, i)
			if err != nil {
				for _, open := range disks[:i] {
					_ = open.Close() // the creation error is the one to report
				}
				return runInfo{}, err
			}
			if tr != nil {
				d = tracedDisk{inner: d, tr: tr}
			}
			disks[i] = d
		}
		arr, err := pdm.NewDiskArray(disks)
		if err != nil {
			return runInfo{}, err
		}
		// M = N/8; the floor is what MergeSort needs for a fan-in of 3 and
		// only matters at the tests' small N.
		out, info, err := sortalg.MergeSort(arr, recs, 1, max(len(recs)/8, 4*s.cfg.D*s.cfg.B))
		st, sys := arr.Stats(), pdm.SyscallsOf(arr)
		if cerr := arr.Close(); err == nil {
			err = cerr
		}
		wall := time.Since(start)
		if err != nil {
			return runInfo{}, err
		}
		if len(out) != len(recs) || !slices.IsSorted(out) {
			return runInfo{}, errors.New("output is not sorted")
		}
		var gotSum, gotXor pdm.Word
		for _, w := range out {
			gotSum += w
			gotXor ^= w
		}
		if gotSum != sum || gotXor != xor {
			return runInfo{}, errors.New("output keys are not the input keys")
		}
		return runInfo{wall: wall, io: st, syscalls: sys, passes: info.Passes}, nil
	}
	return &instance{run: run}
}
