// Package core implements the paper's contribution: the deterministic
// simulation of CGM algorithms as external-memory (EM-CGM) algorithms.
//
// Two machines are provided:
//
//   - RunSeq — Algorithm 2 (SeqCompoundSuperstep): a single real processor
//     with D disks simulates all v virtual processors, swapping their
//     contexts through disk in consecutive format and exchanging their
//     messages through the staggered message matrix of Figure 2, with the
//     single-copy alternation of Observation 2.
//   - RunPar — Algorithm 3 (ParCompoundSuperstep): p ≤ v real processors
//     (goroutines), each with its own D-disk array, simulate v/p virtual
//     processors each; messages between virtual processors on different
//     real processors travel over the real "network" (channels) and are
//     laid out on the destination's disks by its route phase, while a
//     message to a virtual processor on the sender's own real processor
//     is written by the sender's commit, as Algorithm 2 writes an outbox.
//
// Both machines are one engine (engine.go): the same set-up,
// per-processor round body and accounting, called inline for RunSeq and
// from p goroutines between barriers for RunPar. They
// differ only in the message transport — Observation 2's single-copy
// matrix against channels plus a ping-pong pair of rectangles — which is
// also why RunSeq is not RunPar at p = 1. The round body runs every
// virtual processor's I/O split-phase over a ring of Config.PipelineDepth
// scratch slots; depth 1 is the synchronous schedule. It computes up to c
// of a real processor's virtual processors at once, one per core
// (Result.Workers), and commits them in an order fixed at set-up — the
// two virtual processors whose message slots face each other on disk one
// after the other, their writes begun back to back — so the begin order
// does not depend on c.
//
// Both machines execute any cgm.Program unchanged and return exact PDM
// accounting: parallel I/O operations (split into context-swap and
// messaging I/O), communication volume, and superstep counts — the
// quantities Theorems 2 and 3 bound.
//
// The simulation is content-oblivious in its addresses, as a deterministic
// simulation must be: every context run and every message slot has a fixed
// place on the disks, sized for the declared maxima. An image holds items
// and nothing else; how many it holds is recorded once, by its writer, in
// an in-memory length table. What a compound superstep transfers is the
// live block prefix of each image — the blocks the items actually present
// reach — and writer, reader and decoder all derive it from that one count
// (liveBlocks; DESIGN.md §18). And it transfers an image only when
// its reader needs it moved: round 0 computes on what Init made of the
// caller's partition, in memory; a context a round left word for word as
// it read it is not written again; an empty context or message moves no
// block; and the terminal round's contexts, which nobody reads, are not
// written.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs and configuration must yield bit-identical I/O
// schedules and op counts.
package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/costmodel"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// superstepScratch is one slot of a real processor's ring: the reusable
// working storage of one compound superstep — the context image, the flat
// inbox/outbox image, request/buffer staging, and the layout layer's own
// scratch. It is allocated at set-up with empty images, which grow (grow)
// to the largest live prefix the slot has held and are reused every
// round; the typed items the program sees are decoded out of it into the
// vpMem arena of the worker computing the slot's VP, so a steady-state
// superstep performs no heap allocation of its own.
//
// Ownership rule: a scratch belongs to exactly one real processor — to its
// goroutine, except that between handing the slot's VP to a compute worker
// and collecting it, the worker alone decodes from and encodes into the
// images. Nothing inside it escapes a superstep except through explicit
// copies (disk writes copy block contents; decode copies items into the
// arena), and an image loaned to a begun write is not touched again until
// the slot's pending set has been waited.
type superstepScratch struct {
	ctxImg []pdm.Word     // context encode/decode image, at most cb·B words
	flat   []pdm.Word     // message slots' live prefixes, back to back (growFlat), at most v·b′·B words
	live   []int          // live blocks per slot of flat being written or read
	reqs   []pdm.BlockReq // request staging for matrix/striped sequences
	bufs   [][]pdm.Word   // block views over ctxImg or flat
	lay    layout.Scratch // per-cycle request slices and conflict markers
}

// newSuperstepScratch makes a slot for flat images of up to slots message
// slots.
func newSuperstepScratch(slots int) *superstepScratch {
	return &superstepScratch{live: make([]int, slots)}
}

// grow returns img with at least nb blocks of b words: img itself when it
// holds them, else a new image of an eighth more blocks than nb, rounded
// up (an image is only ever split into whole blocks), never more than
// limit blocks (the worst case the slot is charged at), that starts with
// img's words. Those are kept because a context image still holds, at its
// head, what the slot read, which encodeCtx compares against.
func grow(img []pdm.Word, nb, b, limit int) []pdm.Word {
	if nb*b <= len(img) {
		return img
	}
	g := make([]pdm.Word, min(nb+(nb+7)/8, limit)*b)
	copy(g, img)
	return g
}

// Config parameterises an EM-CGM machine.
type Config struct {
	// V is the number of virtual processors of the simulated CGM.
	V int
	// P is the number of real processors (RunPar only; must divide V).
	P int
	// D is the number of disks per real processor.
	D int
	// B is the block (track) size in words.
	B int
	// M, when positive, is the internal memory limit per real processor in
	// words; the machine fails fast if a superstep's working set (context
	// plus one inbox) cannot fit. It is charged one worst-case working set
	// (a context run of μ items, the bound the program declares through
	// cgm.ContextSizer, plus v message slots of MaxMsgItems) per ring
	// slot — PipelineDepth of them — and one more for each decode arena
	// beyond the first: a real processor computes c = min(GOMAXPROCS
	// ÷ P, ⌊k/2⌋ + 1, V/P) of its virtual processors at once, each decoded
	// into an arena of its own, and M lowers c until the k slots and c − 1
	// extra arenas fit. c = 1 always fits where the ring does, so that
	// clamp is never an error, and a Config validates the same on every
	// host. The charge is the worst case; what a slot or an arena holds is
	// only the live prefix of the largest working set it has met.
	M int
	// MaxMsgItems bounds any single message (items); it fixes the message
	// slot size on disk. 0 means the worst case ⌈N/V⌉ (one destination
	// receives a whole h-relation).
	MaxMsgItems int
	// MaxHItems bounds the h-relation (items sent or received by one
	// virtual processor per round); used to size slots when Balanced.
	// 0 means 2·⌈N/V⌉.
	MaxHItems int
	// Balanced wraps the program with BalancedRouting (Algorithm 1),
	// guaranteeing the message-size bounds of Theorem 1 at the cost of
	// doubling the round count (Lemma 2).
	Balanced bool
	// NewDisk, when non-nil, supplies the disk for (real processor, index)
	// — e.g. file-backed disks. nil means in-memory disks.
	NewDisk func(proc, disk int) pdm.Disk
	// DiskDir, when non-empty and NewDisk is nil, backs every disk with a
	// file pdm.FileDisk under this directory (one p%d-d%d.disk file per
	// (processor, disk) pair) — the standard way to run the machine
	// against real storage. Ignored when NewDisk is set: a custom
	// constructor owns its own backing.
	DiskDir string
	// DirectIO opens DiskDir's file disks with O_DIRECT so transfers
	// bypass the page cache (see pdm.FileDiskOptions). Requires file
	// disks: Validate rejects DirectIO when neither DiskDir nor NewDisk
	// is set, since an in-memory array has no cache to bypass. Where the
	// platform or filesystem cannot honour it the disks silently fall
	// back to buffered I/O; probe with pdm.DirectIOSupported first when
	// the distinction matters.
	DirectIO bool
	// CheckedIO runs every disk array in checked mode: each parallel I/O
	// is validated against the layout discipline (bounds, intra-op
	// overlap, read-before-write) before it touches a disk, and buffers
	// on loan to a begun transfer hold poison until its Wait: a store into
	// a loaned write buffer fails that Wait, and a read destination
	// consumed early decodes as garbage. This is what holds the
	// split-phase ownership rules (DESIGN.md §10); the equivalence, chaos
	// and arena tests run with it on. Validation allocates; use in tests
	// and debugging runs, not benchmarks. I/O counts are unchanged.
	CheckedIO bool
	// PipelineDepth is the sliding-window depth k of the superstep
	// schedule: the number of superstep scratch slots in each real
	// processor's ring. Depth 1 is the synchronous schedule — every
	// parallel I/O is waited before the next phase is begun — depth 2 a
	// ping-pong, and deeper windows prefetch further ahead and expose more
	// conflict-free transfers to the batch-coalescing disk workers. 0 (the
	// default) is costmodel.AutoDepth under the time model of the disks
	// the Config builds, clamped by v and M: in-memory disks and buffered
	// DiskDir files are priced as never positioning, so they run
	// AutoDepth's floor of 2 (a buffered file the page cache does not hold
	// does position; DESIGN.md §17 "Auto depth" has what K = 2 costs
	// there); DirectIO files and NewDisk disks are priced as
	// pdm.DefaultTimeModel's disk. A caller with a calibrated device passes
	// costmodel.AutoDepth(fitted, B) here instead. The depth is resolved
	// once, from the Config alone, and held for the whole run, so the
	// begin order is a deterministic function of the configuration —
	// attaching a Recorder or Ledger does not change it. Every depth
	// produces bit-identical outputs, operation multiset and PDM counts
	// (accounting is charged at begin time), so only wall-clock overlap
	// changes. The memory bound is enforced against M: k in-flight working
	// sets (context + message scratch) must fit, Lemma 1–2 style.
	PipelineDepth int
	// Recorder, when non-nil, records the run into the observability
	// layer: one span per compound superstep with its parallel-I/O
	// accounting in the args, child spans per phase (context read,
	// inbox read, compute, routing, context write, barrier wait),
	// per-disk service spans and calibration fits, and BalancedRouting
	// message sizes.
	// nil disables recording; the disabled path is a nil check.
	Recorder *obs.Recorder
	// Ledger, when non-nil, receives one costmodel entry per run: every
	// recorded superstep row priced against the Theorem 2/3 prediction,
	// plus the Result totals, so predicted and measured parallel I/Os
	// can be reconciled bit-exactly. Requires Recorder — the rows are
	// the recorder's superstep spans; Validate rejects a ledger without
	// one. The unrecorded hot path still pays only nil checks.
	Ledger *costmodel.Ledger
}

// Validate checks the structural machine preconditions the paper's
// theorems assume: v ≥ 1 virtual processors, 1 ≤ p ≤ v real processors
// with p dividing v (each simulates exactly v/p virtual processors,
// Algorithm 3), D ≥ 1 disks per processor and a block size B ≥ 1 words
// (the PDM model). Each violation is reported with the paper
// precondition it breaks. RunSeq and RunPar call Validate on entry,
// before any disk is allocated, and so do the wrappers that derive
// limits from V (sortalg.EMSort, permute.EMPermute,
// transpose.EMTranspose), so a caller need not; CLIs call ValidateFor to
// add the problem-size bound before they build their inputs.
func (c Config) Validate() error {
	if c.V < 1 {
		return fmt.Errorf("core: V = %d virtual processors, want ≥ 1", c.V)
	}
	if c.P < 1 {
		return fmt.Errorf("core: P = %d real processors, want ≥ 1", c.P)
	}
	if c.P > c.V {
		return fmt.Errorf("core: P = %d real processors exceeds V = %d (the paper requires p ≤ v)", c.P, c.V)
	}
	if c.V%c.P != 0 {
		return fmt.Errorf("core: P = %d must divide V = %d (each real processor simulates exactly v/p virtual processors)", c.P, c.V)
	}
	if c.D < 1 {
		return fmt.Errorf("core: D = %d disks, want ≥ 1 (PDM needs at least one disk)", c.D)
	}
	if c.B < 1 {
		return fmt.Errorf("core: B = %d words per block, want ≥ 1", c.B)
	}
	if c.PipelineDepth < 0 {
		return fmt.Errorf("core: PipelineDepth = %d, want ≥ 0 (0 = auto)", c.PipelineDepth)
	}
	if c.DirectIO && c.DiskDir == "" && c.NewDisk == nil {
		return fmt.Errorf("core: DirectIO requires file-backed disks (set DiskDir, or supply NewDisk); in-memory disks have no page cache to bypass")
	}
	if c.Ledger != nil && c.Recorder == nil {
		return fmt.Errorf("core: Ledger requires a Recorder (the ledger prices the recorder's superstep spans)")
	}
	return nil
}

// LemmaMinN returns the smallest problem size N for which Lemmas 1–2
// guarantee BalancedRouting keeps every message at least B items:
// N ≥ v²B + v²(v−1)/2.
func (c Config) LemmaMinN() int {
	return c.V*c.V*c.B + c.V*c.V*(c.V-1)/2
}

// ValidateFor is Validate plus the problem-size precondition of
// Lemmas 1–2 for a run of n items: when Balanced is set, the
// minimum-message-size guarantee of Theorem 1 requires
// n ≥ v²B + v²(v−1)/2; below that bound the balanced machine still
// runs, but its messages can shrink under a block and the Theorem 2/3
// I/O bounds no longer follow. CLIs validate with ValidateFor so the
// violation is a descriptive error instead of silent degradation.
func (c Config) ValidateFor(n int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("core: N = %d items, want ≥ 0", n)
	}
	if c.Balanced {
		if min := c.LemmaMinN(); n < min {
			return fmt.Errorf("core: N = %d items violates the Lemma 1–2 precondition N ≥ v²B + v²(v−1)/2 = %d for v = %d, B = %d; BalancedRouting cannot guarantee minimum message size B (grow N, or shrink v or B)", n, min, c.V, c.B)
		}
	}
	return nil
}

// newArray builds the disk array of real processor proc. queueHint sizes
// the per-disk worker queues for the caller's maximum in-flight window
// (0 = the pdm default): the engine passes its depth-k burst so a deep
// window never blocks at begin time and silently serializes.
func (c Config) newArray(proc, queueHint int) (*pdm.DiskArray, error) {
	var arr *pdm.DiskArray
	opts := pdm.ArrayOptions{QueueDepth: queueHint}
	newDisk := c.NewDisk
	if newDisk == nil && c.DiskDir != "" {
		newDisk = fileDiskFactory(c.DiskDir, c.B, c.DirectIO)
	}
	if newDisk == nil {
		arr = pdm.NewMemArrayOpts(c.D, c.B, opts)
	} else {
		disks := make([]pdm.Disk, c.D)
		for i := range disks {
			disks[i] = newDisk(proc, i)
		}
		var err error
		arr, err = pdm.NewDiskArrayOpts(disks, opts)
		if err != nil {
			for _, d := range disks {
				_ = d.Close() // the array never took ownership; err is what is reported
			}
			return nil, err
		}
	}
	if c.CheckedIO {
		// A context is read only as far as the length table says it was
		// written (round 0 reads none), and every message slot is rewritten
		// each round before its inbox is read, so read-before-write holds
		// for the whole superstep schedule.
		arr.EnableChecked()
	}
	return arr, nil
}

// fileDiskFactory returns a NewDisk-shaped constructor backing each disk
// with a pdm.FileDisk at dir/p%d-d%d.disk. A creation failure surfaces as
// a disk whose every transfer returns the creation error, so the run's
// first I/O fails with a descriptive message — the only error channel a
// disk constructor has.
func fileDiskFactory(dir string, b int, direct bool) func(proc, disk int) pdm.Disk {
	return func(proc, disk int) pdm.Disk {
		path := filepath.Join(dir, fmt.Sprintf("p%d-d%d.disk", proc, disk))
		fd, err := pdm.NewFileDiskOpts(path, b, pdm.FileDiskOptions{DirectIO: direct})
		if err != nil {
			return errDisk{b: b, err: fmt.Errorf("core: disk %d of processor %d: %w", disk, proc, err)}
		}
		return fd
	}
}

// errDisk is a placeholder for a disk that failed to construct: every
// transfer reports the construction error.
type errDisk struct {
	b   int
	err error
}

func (d errDisk) ReadTrack(int, []pdm.Word) error  { return d.err }
func (d errDisk) WriteTrack(int, []pdm.Word) error { return d.err }
func (d errDisk) BlockSize() int                   { return d.b }
func (d errDisk) Tracks() int                      { return 0 }
func (d errDisk) Close() error                     { return nil }

// Result reports the outcome and the cost accounting of an EM-CGM run.
type Result[T any] struct {
	// Outputs[j] is virtual processor j's output partition.
	Outputs [][]T
	// Rounds is λ, the number of compound supersteps executed (after
	// balancing, if enabled — Lemma 2's 2λ shows up here).
	Rounds int
	// IO aggregates disk statistics over all real processors. IO.ParallelOps
	// is the PDM cost measure the paper's theorems bound.
	IO pdm.IOStats
	// IOPerProc holds each real processor's disk statistics.
	IOPerProc []pdm.IOStats
	// CtxOps and MsgOps split IO.ParallelOps into context-swap operations
	// and message-matrix operations.
	CtxOps, MsgOps int64
	// CommItems counts items sent between distinct real processors (the
	// real communication α of Theorem 3); always 0 for RunSeq.
	CommItems int64
	// MaxH is the largest observed h-relation (items sent or received by
	// one virtual processor in one round).
	MaxH int
	// MaxMsgObserved is the largest single message actually produced.
	MaxMsgObserved int
	// MaxCtxObserved is the largest context actually held (measured μ).
	MaxCtxObserved int
	// Supersteps is the number of real-machine supersteps: Rounds · V/P
	// compound supersteps per Lemma 4, one per virtual processor a real
	// processor simulates in each round — Rounds · V for RunSeq's single
	// processor.
	Supersteps int
	// MaxTracks is the largest track index allocated on any disk — the
	// simulation's disk-space footprint. RunSeq's single-copy message
	// matrix (Observation 2) keeps it roughly half of RunPar's
	// double-buffered layout.
	MaxTracks int
	// Syscalls is the cumulative I/O syscall count of all disks that keep
	// one (file-backed disks; see pdm.SyscallCounter), summed over real
	// processors. Zero for in-memory runs. Unlike ParallelOps it is not
	// part of the determinism contract — short transfers retry — but it is
	// the denominator of the batched-I/O win: the same ParallelOps issued
	// in fewer syscalls.
	Syscalls int64
	// Stall is the wall-clock time the engine spent blocked in
	// Pending.Wait, summed over real processors — the I/O time the
	// window failed to hide behind compute. A wait while one of the
	// processor's virtual processors computes on a worker is hidden behind
	// that compute and is not counted. Measured only when a
	// Recorder is attached (the determinism contract forbids wall-clock
	// reads otherwise); zero for unrecorded runs.
	Stall time.Duration
	// Depth is the ring depth the run used: the resolved PipelineDepth
	// (after auto-sizing and clamping to v and M), the same with or
	// without a Recorder; always ≥ 1, and 1 is the synchronous
	// schedule. Not part of the output/accounting
	// equivalence contract — it describes the overlap schedule, which is
	// exactly what the contract allows to vary.
	Depth int
	// Workers is c, how many virtual processors each real processor
	// computed at once: min(GOMAXPROCS ÷ P, ⌊Depth/2⌋ + 1, V/P), clamped
	// further under M. Like Depth it describes the overlap schedule and
	// nothing the contract pins; unlike Depth it depends on the host.
	Workers int
}

// Output concatenates the per-VP outputs in VP order.
func (r *Result[T]) Output() []T {
	var n int
	for _, o := range r.Outputs {
		n += len(o)
	}
	out := make([]T, 0, n)
	for _, o := range r.Outputs {
		out = append(out, o...)
	}
	return out
}

// limits resolves the context and message bounds for a run of n items: μ
// is what the program declares through cgm.ContextSizer, else a generous
// default.
func limits[T any](prog cgm.Program[T], cfg Config, n int) (maxCtx, maxMsg int) {
	perVP := (n + cfg.V - 1) / cfg.V
	if cs, ok := prog.(cgm.ContextSizer); ok {
		maxCtx = cs.MaxContextItems(n, cfg.V)
	}
	if maxCtx <= 0 {
		maxCtx = 8*perVP + 4*cfg.V + 64
	}
	maxMsg = cfg.MaxMsgItems
	if maxMsg <= 0 {
		maxMsg = perVP + 1
	}
	return maxCtx, maxMsg
}

// balancedMsgBound returns the slot size (items) sufficient for a
// balanced run given the h bound: Theorem 1's h/v + (v−1)/2, rounded up
// with one item of slack.
func balancedMsgBound(maxH, v int) int {
	return (maxH+v-1)/v + (v-1)/2 + 1
}

// liveBlocks is the one rule that turns an image's item count — its
// length-table entry, the only record of its size — into its live prefix:
// the b-word blocks that n items of w words reach within an image of size
// blocks; none for no items. The writer fills and transfers that prefix,
// the reader transfers it, and decode reads the n·w words at its head, so
// nothing is decoded that was not transferred.
func liveBlocks(n, w, b, size int) int { return min(pdm.BlocksFor(n*w, b), size) }

// encodeLive serialises items into the head of the fixed-address image img
// and zero-fills the rest of its first nb blocks of b words, the live
// prefix liveBlocks gives for them. The rest of the image is left as it
// was: it is neither transferred nor decoded. img is caller-owned scratch
// of at least nb blocks, and the caller has checked len(items) against the
// declared maximum; reusing it across supersteps is what keeps the hot
// path allocation-free.
func encodeLive[T any](codec wordcodec.Codec[T], items []T, img []pdm.Word, nb, b int) {
	end := len(items) * codec.Words()
	wordcodec.EncodeInto(codec, img[:end], items)
	clear(img[end : nb*b])
}

// encodeCtx is encodeLive for a context whose image still holds, at its
// head, the was items the slot read this round — which is what is on disk.
// If there are was items and they encode to exactly those words, same is
// true, img is untouched and nothing needs writing. The test is on the
// encoding, word for word, and on nothing cheaper: a program may change an
// item in place, so the identity of the slice says nothing, and neither
// does its length. The items are encoded a chunk of len(cmp) words at a
// time and held against img; the first chunk that differs ends the
// comparison and the whole context is encoded over img's nb live blocks,
// so a context that changed pays for one chunk more than it always did.
func encodeCtx[T any](codec wordcodec.Codec[T], items []T, img, cmp []pdm.Word, was, nb, b int) (same bool) {
	iw := codec.Words()
	same = len(items) == was
	per := len(cmp) / iw
	for off := 0; same && off < len(items); off += per {
		chunk := items[off:min(off+per, len(items))]
		words := cmp[:len(chunk)*iw]
		wordcodec.EncodeInto(codec, words, chunk)
		same = slices.Equal(words, img[off*iw:off*iw+len(words)])
	}
	if !same {
		encodeLive(codec, items, img, nb, b)
	}
	return same
}

// checkCtx reports a context over the declared bound μ.
func checkCtx(items, maxCtx int) error {
	if items > maxCtx {
		return fmt.Errorf("core: context of %d items exceeds the declared bound μ = %d items; implement cgm.ContextSizer", items, maxCtx)
	}
	return nil
}

// RunSeq simulates program prog as a single-processor EM-CGM algorithm
// per Algorithm 2. If cfg.Balanced is set, the program is first lifted
// through BalancedRouting.
func RunSeq[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	cfg.P = 1
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Balanced {
		return runBalanced(prog, codec, cfg, inputs, false)
	}
	return run(prog, codec, cfg, inputs, false)
}

// RunPar simulates program prog as a p-processor EM-CGM algorithm per
// Algorithm 3. If cfg.Balanced is set, the program is first lifted
// through BalancedRouting.
func RunPar[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Balanced {
		return runBalanced(prog, codec, cfg, inputs, true)
	}
	return run(prog, codec, cfg, inputs, true)
}

// runBalanced runs the program lifted through BalancedRouting, on the
// caller's own codec and inputs, with message slots sized by Theorem 1
// unless the Config sets them.
func runBalanced[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T, par bool) (*Result[T], error) {
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	maxH := cfg.MaxHItems
	if maxH <= 0 {
		maxH = 2 * ((n + cfg.V - 1) / cfg.V)
	}
	wcfg := cfg
	wcfg.Balanced = false
	rule := "Theorem 1's h/v + (v-1)/2 + 1"
	if bound := balancedMsgBound(maxH, cfg.V); wcfg.MaxMsgItems == 0 {
		wcfg.MaxMsgItems = bound
	} else {
		rule = fmt.Sprintf("Config.MaxMsgItems, in place of %s = %d", rule, bound)
	}
	// Observe the routed message sizes against the slot the machine
	// actually provisioned; without a Recorder WrapObserved is Wrap.
	cfg.Recorder.SetMsgBound(wcfg.MaxMsgItems, rule)
	return run(balance.WrapObserved(prog, cfg.Recorder), codec, wcfg, inputs, par)
}
