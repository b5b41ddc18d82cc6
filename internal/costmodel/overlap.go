package costmodel

import (
	"time"

	"repro/internal/pdm"
)

// This file is the depth-aware overlap model: given the machine geometry,
// the calibrated pdm.TimeModel, and a pipeline window depth k, it prices
// how much of a compound superstep's I/O time the sliding window hides
// behind compute — the term ModelWall alone cannot express, because the
// op-count prediction is depth-invariant by construction.
//
// The model is deliberately coarse (it prices a steady-state superstep,
// not the ramp-up at round boundaries) but captures the two levers a
// deeper window pulls:
//
//   - prefetch distance: the ⌊k/2⌋ read-ahead slots give each superstep's
//     reads ⌊k/2⌋ compute intervals to complete under, and the ⌈k/2⌉
//     write-behind slots give its writes the same; residual stall is
//     what is left after that overlap.
//   - batch coalescing: a k-deep window keeps ≥ k conflict-free
//     same-direction transfers queued per disk, which the batching
//     workers fuse — so the effective per-block service time falls from
//     BlockTime(b) toward BatchTime(b, k)/k as positioning amortises.

// autoDepthMin/autoDepthMax clamp AutoDepth's model-driven choice. The
// floor keeps the window at least a ping-pong (K = 2); the ceiling keeps
// the ring's memory modest — past eight slots the depth sweep measured
// no further overlap (EXPERIMENTS.md), and a caller who wants a deeper
// window asks for it with a fixed depth. A disk whose positioning costs a
// block transfer or more gets at least autoDepthPaired, the shallowest
// ring whose prefetch distance ⌊K/2⌋ = 2 begins both reads of a facing
// pair (core.commitOrder) in one slide, so they reach each disk's queue
// side by side and one positioning serves the two.
const (
	autoDepthMin    = 2
	autoDepthPaired = 4
	autoDepthMax    = 8
)

// AutoDepth picks the pipeline window depth for block size b under time
// model tm: the smallest k whose coalesced k-track batch
// amortises the fixed positioning cost (seek + half a rotation) below
// one block's transfer time, clamped to [2, 8] — and to at least 4 when
// positioning costs at least one transfer, so facing pairs read back to
// back. Positioning-dominated disks (real seeks, O_DIRECT files) get deep
// windows; transfer-dominated models (fixed-delay) get the minimum, and a
// model with no positioning at all — pdm.TimeModel{}, which core's auto
// depth uses for in-memory and buffered file disks — gets the minimum
// whatever its transfer rate, since a deeper ring would only hold more
// slot images. The result is a pure function of the model, so the chosen
// depth — and with it the begin order — is part of the configuration, not
// the measurement.
func AutoDepth(tm pdm.TimeModel, b int) int {
	pos := tm.Seek + tm.Rotate/2
	if pos <= 0 {
		return autoDepthMin // nothing to amortise
	}
	xfer := tm.BlockTime(b) - pos
	if xfer <= 0 {
		return autoDepthMax
	}
	// Amortised positioning pos/k drops below one transfer at k ≥ pos/x.
	k := int(pos/xfer) + 1
	if pos >= xfer {
		k = max(k, autoDepthPaired)
	}
	return min(max(k, autoDepthMin), autoDepthMax)
}

// OverlapPoint is one (depth, predicted stall) sample of the stall curve.
type OverlapPoint struct {
	Depth     int
	Stall     time.Duration // residual stall per processor over the run
	StallFrac float64       // stall / (wall per processor)
	Wall      time.Duration // modelled wall per processor
}

// ModelWallPipelined prices the run's wall time under the depth-k
// pipelined schedule: per compound superstep, compute overlaps the
// window's read-ahead and write-behind, and whatever I/O time neither
// side hides is residual stall. compute is the per-superstep compute
// time (calibrated from a synchronous run: wall/steps minus the modelled
// I/O time); k ≤ 1 degenerates to the fully synchronous schedule where
// every superstep pays its whole I/O time.
//
// The returned point is per real processor — multiply Stall by P to
// compare against RunTotals.Stall, which sums over processors.
func (r Run) ModelWallPipelined(tm pdm.TimeModel, compute time.Duration, k int) OverlapPoint {
	m := r.Machine
	steps := m.Rounds * m.LocalV()
	if steps <= 0 || m.P <= 0 {
		return OverlapPoint{Depth: k}
	}
	opsPerProc := r.PredOps / int64(m.P)
	perStep := float64(opsPerProc) / float64(steps)

	// Effective per-op service time at window depth k: the burst exposes
	// min(k, MaxBatchTracks) conflict-free transfers to the coalescing
	// workers, so positioning amortises over that many tracks.
	kb := k
	if kb < 1 {
		kb = 1
	}
	if kb > pdm.MaxBatchTracks {
		kb = pdm.MaxBatchTracks
	}
	op := float64(tm.BatchTime(m.B, kb)) / float64(kb)

	// A superstep's ops split roughly evenly between its read side
	// (context + inbox prefetch) and its write side (outbox + context
	// write-behind); each side overlaps its share of the window.
	side := perStep / 2 * op
	c := float64(compute)
	readSlots, writeSlots := float64(k/2), float64(k-k/2)
	var stallStep float64
	if k <= 1 {
		stallStep = 2 * side // synchronous: all I/O on the critical path
	} else {
		stallStep = max(0, side-readSlots*c) + max(0, side-writeSlots*c)
	}
	wallStep := c + stallStep
	pt := OverlapPoint{
		Depth: k,
		Stall: time.Duration(float64(steps) * stallStep),
		Wall:  time.Duration(float64(steps) * wallStep),
	}
	if wallStep > 0 {
		pt.StallFrac = stallStep / wallStep
	}
	return pt
}
