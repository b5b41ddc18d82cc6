package core

import (
	"fmt"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// stallWait drains a pending set on the engine's behalf. Under
// a Recorder the blocked time is added to *stallNS and stored as a span
// called name in the "wait" category; without one it is a plain Wait,
// because the determinism contract forbids wall-clock reads in
// unrecorded runs.
func stallWait(rec *obs.Recorder, track obs.TrackID, name string, ps *pdm.PendingSet, stallNS *int64) error {
	if rec == nil {
		return ps.Wait()
	}
	if ps.Len() == 0 {
		return nil
	}
	t0 := time.Now()
	err := ps.Wait()
	*stallNS += time.Since(t0).Nanoseconds()
	rec.SpanSince(track, name, "wait", t0)
	return err
}

// ctxSlot locates one virtual processor's context for the input
// distribution: the array of the real processor that owns it, the ring
// slot it is staged through, and the first block of its run on that array.
type ctxSlot struct {
	arr   *pdm.DiskArray
	s     *superstepScratch
	sl    *vpInflight
	start int
}

// distributeInputs is the engine's input distribution, run as
// write-behind over the rings the processors already own: VP j is
// initialised, the previous write out of its slot is waited, and its
// context is encoded into the slot and begun as a striped write into the
// slot's writes set; one drain closes the phase, because round 0's
// prologue reads into the same images. slot maps a VP to its array and
// ring slot — j mod K on the sequential machine, the local index mod K on
// the owning processor of the parallel one.
//
// Begins stay in VP order and accounting is charged at begin, so the
// operations, their addresses and the counters are the same at every
// ring depth (at depth 1 each context's write is waited before the next
// VP is initialised). What changes with depth is what the disks see:
// contexts are stored in consecutive format, so the up to K runs queued
// per disk are adjacent tracks and the batching workers fuse them into
// vectored calls, and Init and encode of VP j+1 overlap the write of VP j.
//
// cached, when non-nil, is the parallel machine's resident-context table
// (CacheContexts, one VP per processor): contexts are kept there and no
// I/O is begun. On error every write already begun, on every array, has
// been waited before the error is returned.
func distributeInputs[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T, maxCtx int,
	slot func(j int) ctxSlot, cached [][]T, rec *obs.Recorder, track obs.TrackID) (maxObserved int, stallNS int64, err error) {
	v := cfg.V
	// fail drains the rings before an error return; the drained errors are
	// dropped because the caller's error is the one being reported.
	fail := func(err error) (int, int64, error) {
		for j := 0; j < v; j++ {
			_ = slot(j).sl.writes.Wait()
		}
		return 0, 0, err
	}
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		prog.Init(vp, inputs[j])
		if len(vp.State) > maxObserved {
			maxObserved = len(vp.State)
		}
		if cached != nil {
			if len(vp.State) > maxCtx {
				return 0, 0, fmt.Errorf("core: context of %d items exceeds μ = %d", len(vp.State), maxCtx)
			}
			cached[j] = vp.State
			continue
		}
		c := slot(j)
		// The slot's image still backs the write of the VP K places back.
		if err := stallWait(rec, track, "stall init", &c.sl.writes, &stallNS); err != nil {
			return fail(fmt.Errorf("core: input distribution: write context: %w", err))
		}
		if err := encodeCtxInto(codec, vp.State, maxCtx, c.s.ctxImg); err != nil {
			return fail(fmt.Errorf("vp %d: %w", j, err))
		}
		c.s.bufs = layout.SplitBlocksInto(c.s.bufs[:0], c.s.ctxImg, cfg.B)
		if err := layout.BeginWriteStripedScratch(c.arr, 0, c.start, c.s.bufs, &c.s.lay, &c.sl.writes); err != nil {
			return fail(fmt.Errorf("core: input distribution: vp %d: begin context write: %w", j, err))
		}
	}
	for j := 0; j < v; j++ {
		if err := stallWait(rec, track, "stall init", &slot(j).sl.writes, &stallNS); err != nil {
			return fail(fmt.Errorf("core: input distribution: write context: %w", err))
		}
	}
	return maxObserved, stallNS, nil
}
