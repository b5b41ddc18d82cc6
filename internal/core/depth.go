package core

import (
	"fmt"
	"runtime"

	"repro/internal/costmodel"
	"repro/internal/pdm"
)

// This file resolves Config.PipelineDepth into the ring depth the engine
// runs with, and sizes everything that scales with it (scratch slots,
// per-disk queue capacity). The depth is a function of the Config alone:
// it is resolved once, before the first array is built, and the ring
// keeps it for the whole run — so the begin order is the same whether or
// not a Recorder or Ledger watches.
//
// Depth policy:
//
//   - PipelineDepth > 0: that depth exactly, clamped only by v (a window
//     deeper than the VPs it can cover buys nothing); a fixed depth whose
//     k working sets exceed M is an error, not a silent clamp, because
//     the caller asked for a specific memory/overlap trade.
//   - PipelineDepth = 0 (auto): costmodel.AutoDepth under the time model
//     of the disks the Config builds (deviceModel), clamped by v and by M.
//     In-memory disks never position, so they get AutoDepth's floor of 2:
//     a deeper ring would hide nothing and only hold more slot images in
//     memory. Buffered DiskDir files get the same floor: served from the
//     page cache they do not position either, and where they miss it on
//     the virtual disk measured, the deeper ring bought at most 9 % of
//     wall against six more slot images (EXPERIMENTS.md "Beyond the page
//     cache"). DirectIO files and NewDisk
//     disks may be anything, so they are priced as pdm.DefaultTimeModel's
//     disk. A caller with a calibrated device passes
//     PipelineDepth: costmodel.AutoDepth(fitted, B) instead.

// pipeDepth resolves the configured depth for a machine whose rings cannot
// usefully exceed vCap slots and whose per-slot working set is slotWords
// words (one context run + one full message image: the worst case, which
// a slot is charged whatever it holds).
func pipeDepth(cfg Config, vCap, slotWords int) (int, error) {
	k := cfg.PipelineDepth
	if k == 0 {
		k = costmodel.AutoDepth(deviceModel(cfg), cfg.B)
	}
	k = max(min(k, vCap), 1)
	if cfg.M <= 0 || slotWords <= 0 {
		return k, nil
	}
	fit := cfg.M / slotWords
	if fit < 1 {
		return 0, fmt.Errorf("core: one pipelined working set of %d words exceeds M = %d; shrink the context/message bounds or raise M", slotWords, cfg.M)
	}
	if cfg.PipelineDepth > 0 && k > fit {
		return 0, fmt.Errorf("core: PipelineDepth = %d needs %d words of internal memory (k working sets of %d), but M = %d fits only %d; lower the depth, raise M, or use PipelineDepth: 0 (auto clamps)",
			k, k*slotWords, slotWords, cfg.M, fit)
	}
	return min(k, fit), nil
}

// deviceModel is the time model auto depth prices: that of the disks cfg
// builds itself. MemDisk and buffered DiskDir files are priced as having no
// positioning to amortise (the zero model; see the depth policy above for
// files the page cache does not hold); DirectIO files and caller-supplied
// NewDisk disks, which may be anything, are the default device.
func deviceModel(cfg Config) pdm.TimeModel {
	if cfg.NewDisk == nil && !cfg.DirectIO {
		return pdm.TimeModel{}
	}
	return pdm.DefaultTimeModel()
}

// computeWorkers is c, how many of its virtual processors a real processor
// computes at once on a ring of k slots of slotWords words each
// (DESIGN.md §17): one per core its share of GOMAXPROCS gives it, but no
// more than ⌊k/2⌋ + 1 — the VP c−1 places ahead of the one being committed
// must have had its reads begun by the same slide, c − 1 ≤ pf — and no more
// than it has VPs. Under M the c − 1 arenas beyond the first are charged
// one working set each, next to the k slots pipeDepth already fitted, and
// c shrinks until they fit; c = 1 always does, so this is never an error.
// Unlike the depth, c depends on the host; the begin order does not
// depend on c.
func computeWorkers(cfg Config, k, localV, slotWords int) int {
	c := min(runtime.GOMAXPROCS(0)/cfg.P, k/2+1, localV)
	if cfg.M > 0 && slotWords > 0 {
		c = min(c, cfg.M/slotWords-k+1)
	}
	return max(c, 1)
}

// queueHint sizes the per-disk work queues for a window of k slots of
// slotBlocks blocks striped/packed over d disks: reads and writes of the
// whole window may be queued at once, so twice the window's per-disk
// share, plus slack for uneven packing. The array still applies its own
// default floor.
func queueHint(k, slotBlocks, d int) int {
	if d < 1 {
		d = 1
	}
	return 2 * k * ((slotBlocks+d-1)/d + 1)
}
