package core

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/pdm"
)

// This file resolves Config.PipelineDepth into the ring depth the engine
// actually runs with, and sizes everything that scales with it (scratch
// slots, per-disk queue capacity).
//
// Depth policy:
//
//   - PipelineDepth > 0: that depth exactly, clamped only by v (a window
//     deeper than the VPs it can cover buys nothing); a fixed depth whose
//     k working sets exceed M is an error, not a silent clamp, because
//     the caller asked for a specific memory/overlap trade.
//   - PipelineDepth = 0 (auto): costmodel.AutoDepth picks the initial k
//     from the calibrated time model (positioning-dominated disks get
//     deep windows), clamped by v and by M. The engine may then grow
//     the ring up to maxK between rounds while the measured stall
//     fraction stays high — growth only, so scratch is never freed
//     mid-run, and only under a Recorder, since the trigger is a
//     wall-clock measurement the determinism contract scopes to
//     recorded runs.

// maxPipelineDepth caps the ring depth the online adaptation may grow an
// auto-sized window to. Past this point a deeper window no longer adds
// overlap (compute per superstep is already fully hidden or never will
// be) and only inflates memory.
const maxPipelineDepth = 16

// adaptGrowNum/adaptGrowDen: the adaptation doubles the ring when a
// round's measured stall exceeds 1/5 of its wall time per processor —
// high enough that ramp-up noise at small rounds does not trigger it,
// low enough that the acceptance target (stall fraction ≤ 0.25) is
// inside its reach.
const (
	adaptGrowNum = 1
	adaptGrowDen = 5
)

// pipeDepth resolves the configured depth for a machine whose rings cannot
// usefully exceed vCap slots and whose per-slot working set is slotWords
// words (one context run + one full message image). It returns the
// initial ring depth and the cap the online adaptation may grow it to
// (maxK == k for fixed depths).
func pipeDepth(cfg Config, vCap, slotWords int) (k, maxK int, err error) {
	fixed := cfg.PipelineDepth > 0
	if fixed {
		k = cfg.PipelineDepth
	} else {
		tm := pdm.DefaultTimeModel()
		if cfg.Ledger != nil {
			tm = cfg.Ledger.TimeModel()
		}
		k = costmodel.AutoDepth(tm, cfg.B)
	}
	if k > vCap {
		k = vCap
	}
	if k < 1 {
		k = 1
	}
	fit := maxPipelineDepth
	if cfg.M > 0 && slotWords > 0 {
		fit = cfg.M / slotWords
		if fit < 1 {
			return 0, 0, fmt.Errorf("core: one pipelined working set of %d words exceeds M = %d; shrink the context/message bounds or raise M", slotWords, cfg.M)
		}
		if fixed && k > fit {
			return 0, 0, fmt.Errorf("core: PipelineDepth = %d needs %d words (k working sets of %d), but M = %d fits only %d; lower the depth, raise M, or use PipelineDepth: 0 (auto clamps)",
				k, k*slotWords, slotWords, cfg.M, fit)
		}
		if k > fit {
			k = fit
		}
	}
	maxK = k
	if !fixed {
		maxK = maxPipelineDepth
		if maxK > vCap {
			maxK = vCap
		}
		if maxK > fit {
			maxK = fit
		}
		if maxK < k {
			maxK = k
		}
	}
	return k, maxK, nil
}

// queueHint sizes the per-disk work queues for a window of up to maxK
// slots of slotBlocks blocks striped/packed over d disks: reads and
// writes of the whole window may be queued at once, so twice the
// window's per-disk share, plus slack for uneven packing. The array
// still applies its own default floor.
func queueHint(maxK, slotBlocks, d int) int {
	if d < 1 {
		d = 1
	}
	return 2 * maxK * ((slotBlocks+d-1)/d + 1)
}
