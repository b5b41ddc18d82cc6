package core

import (
	"fmt"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
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

// distributeInputs is the engine's input distribution, run as
// write-behind over the rings the processors already own: VP j is
// initialised, the previous write out of its slot — local index mod K on
// the owning processor — is waited, and the live prefix of its context is
// encoded into the slot, begun as a striped write into the slot's writes
// set and recorded in the processor's length table, where round 0's
// read-back finds it; one drain closes the phase, because round 0's
// prologue reads into the same images.
//
// Begins stay in VP order and accounting is charged at begin, so the
// operations, their addresses and the counters are the same at every
// ring depth (at depth 1 each context's write is waited before the next
// VP is initialised). What changes with depth is what the disks see:
// contexts are stored in consecutive format, so the up to K runs queued
// per disk are ascending tracks (adjacent when the contexts fill their
// runs) that the batching workers fuse into vectored calls, and Init and
// encode of VP j+1 overlap the write of VP j.
//
// Under CacheContexts (one VP per processor) contexts are kept in
// e.cached and no I/O is begun. On error every write already begun, on
// every array, has been waited before the error is returned.
func (e *engine[T]) distributeInputs(inputs [][]T, track obs.TrackID) (maxObserved int, stallNS int64, err error) {
	v, B := e.cfg.V, e.cfg.B
	// fail drains the rings before an error return; the drained errors are
	// dropped because the caller's error is the one being reported.
	fail := func(err error) (int, int64, error) {
		for _, pr := range e.procs {
			pr.drain()
		}
		return 0, 0, err
	}
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		e.prog.Init(vp, inputs[j])
		maxObserved = max(maxObserved, len(vp.State))
		if err := checkCtx(len(vp.State), e.maxCtx); err != nil {
			return fail(fmt.Errorf("vp %d: %w", j, err))
		}
		if e.sizes != nil {
			e.sizes.Ctx[0][j] = len(vp.State)
		}
		if e.cached != nil {
			e.cached[j] = vp.State
			continue
		}
		pr, l := e.procs[j/e.localV], j%e.localV
		k := l % len(pr.ring)
		s, sl := pr.ring[k], &pr.pend[k]
		// The slot's image still backs the write of the VP K places back.
		if err := stallWait(e.rec, track, "stall init", &sl.writes, &stallNS); err != nil {
			return fail(fmt.Errorf("core: input distribution: write context: %w", err))
		}
		pr.ctxLive[l] = encodeLive(e.codec, vp.State, s.ctxImg, B, 0)
		s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg[:pr.ctxLive[l]*B], B)
		if err := layout.BeginWriteStripedScratch(pr.arr, 0, l*e.cb, s.bufs, &s.lay, &sl.writes); err != nil {
			return fail(fmt.Errorf("core: input distribution: vp %d: begin context write: %w", j, err))
		}
	}
	for _, pr := range e.procs {
		for k := range pr.pend {
			if err := stallWait(e.rec, track, "stall init", &pr.pend[k].writes, &stallNS); err != nil {
				return fail(fmt.Errorf("core: input distribution: write context: %w", err))
			}
		}
	}
	return maxObserved, stallNS, nil
}
