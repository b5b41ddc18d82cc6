package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// vpInflight is one pipeline slot of a superstep driver: the split-phase
// handles of the slot's in-flight reads and writes, plus the operation
// counts banked for its superstep's trace row. Accounting is charged at
// begin time, so the driver snapshots counter deltas as it begins each
// operation group; the deltas are exact because only the driver goroutine
// begins operations on its array.
type vpInflight struct {
	reads, writes  pdm.PendingSet
	ctxOps, msgOps int64
	blocks         int64
}

// reset zeroes the banked counts after their trace row is emitted.
func (sl *vpInflight) reset() {
	sl.ctxOps, sl.msgOps, sl.blocks = 0, 0, 0
}

// runSeqPipelined is runSeq under the PipelineOn schedule: the same
// Algorithm 2 superstep loop software-pipelined over a ring of K
// superstepScratch slots (VP j owns slot j mod K). The window slides with
// a prefetch distance of pf = ⌊K/2⌋: while VP j computes out of its slot,
// the contexts and inboxes of VPs j+1 … j+pf are already being read, and
// the writes of VPs back to j−(K−pf) drain as write-behind that the
// driver only waits for when their slot is about to be reused. At K = 2
// this is exactly the PR 5 ping-pong; deeper rings hide more latency and
// keep ≥ K conflict-free transfers queued per disk for the batching
// workers to coalesce.
//
// Each round opens with a burst: the window's first pf prefetches are
// issued back to back, in synchronous order, before any superstep runs —
// that burst is what lets the per-disk workers fuse the window's
// ascending-track transfers into large vectored calls instead of seeing
// them trickle in one VP at a time.
//
// The schedule preserves the synchronous schedule's operation multiset,
// addresses, and cycle packing exactly — only the begin order changes:
// the reads of VPs j+1 … j+pf are hoisted above the writes of VP j. That
// hoist is address-disjoint within a round (Observation 2: VP j's outbox
// writes land in the slots its own inbox freed, and context runs are
// per-VP), no prefetch crosses a round boundary, and the per-disk work
// queues are FIFO, so every write→read dependency still executes in
// begin order. With accounting charged at begin time the PDM counts are
// therefore bit-identical to PipelineOff at every depth, which the
// equivalence tests pin.
func runSeqPipelined[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	v := cfg.V
	if len(inputs) != v {
		return nil, fmt.Errorf("core: %d input partitions for V = %d", len(inputs), v)
	}
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	iw := codec.Words()
	maxCtx, maxMsg := limits(prog, cfg, n)
	cw := ctxWords(maxCtx, iw)
	sw := slotWords(maxMsg, iw)
	cb := pdm.BlocksFor(cw, cfg.B)  // blocks per context
	bpm := pdm.BlocksFor(sw, cfg.B) // blocks per message slot (b′)
	ctxTracks := (v*cb+cfg.D-1)/cfg.D + 1

	// The pipeline holds k superstep working sets at once; resolve the
	// ring depth against the memory bound and the cost model.
	slotBlocks := cb + v*bpm
	k, maxK, err := pipeDepth(cfg, v, slotBlocks*cfg.B)
	if err != nil {
		return nil, err
	}

	matrix, err := layout.NewMatrix(v, bpm, cfg.D, ctxTracks)
	if err != nil {
		return nil, err
	}
	arr, err := cfg.newArray(0, queueHint(maxK, slotBlocks, cfg.D))
	if err != nil {
		return nil, err
	}
	defer arr.Close()

	rec := cfg.Recorder
	var track obs.TrackID
	var depthGauge atomic.Int64
	stallName := "stall"
	if rec != nil {
		track = rec.Track("proc 0")
		arr.SetRecorder(rec, 0)
		depthGauge.Store(int64(k))
		rec.Gauge("core_p0_pipeline_depth", depthGauge.Load)
		stallName = fmt.Sprintf("stall k=%d", k)
	}

	res := &Result[T]{Outputs: make([][]T, v)}
	scr := make([]*superstepScratch, 0, maxK)
	pend := make([]vpInflight, 0, maxK)
	scr, pend = growRing(scr, pend, k, cb, v*bpm, cfg.B)
	mem := newVPMem[T](v, cfg.CheckedIO)

	// drain waits out every in-flight operation before an error return:
	// no handle leaks, no worker left holding a buffer reference. The
	// drained errors are deliberately dropped — the caller's error is the
	// one being reported.
	drain := func() {
		for i := range pend {
			_ = pend[i].reads.Wait()
			_ = pend[i].writes.Wait()
		}
	}

	// Input distribution: write-behind over the ring, drained before round
	// 0's prologue (see distributeInputs).
	ledBase := rec.StepCount()
	initSpan := rec.Begin(track, "input distribution", "init")
	maxObserved, stallNS, err := distributeInputs(prog, codec, cfg, inputs, maxCtx, func(j int) ctxSlot {
		return ctxSlot{arr: arr, s: scr[j%k], sl: &pend[j%k], start: j * cb}
	}, nil, rec, track)
	if err != nil {
		initSpan.End()
		return nil, err
	}
	res.MaxCtxObserved = maxObserved
	res.CtxOps = arr.Stats().ParallelOps
	if rec != nil {
		initSpan.EndIO(obs.SuperstepIO{Proc: 0, Round: -1, VP: -1, Label: "init",
			CtxOps: res.CtxOps, Blocks: arr.Stats().BlocksMoved})
	}

	// bank charges the ops begun since the last snapshot to slot sl's
	// trace row, split into context vs message operations.
	lastOps := arr.Stats().ParallelOps
	lastBlocks := arr.Stats().BlocksMoved
	bank := func(sl *vpInflight, isCtx bool) {
		s := arr.Stats()
		if isCtx {
			sl.ctxOps += s.ParallelOps - lastOps
		} else {
			sl.msgOps += s.ParallelOps - lastOps
		}
		sl.blocks += s.BlocksMoved - lastBlocks
		lastOps, lastBlocks = s.ParallelOps, s.BlocksMoved
	}

	// beginReads prefetches VP j's context and (after round 0) inbox into
	// scratch j mod K, charging the begun ops to that slot's row.
	beginReads := func(j, round int) error {
		sl := &pend[j%len(scr)]
		s := scr[j%len(scr)]
		pf := rec.Begin(track, "prefetch", "prefetch")
		if err := layout.BeginReadStripedScratch(arr, 0, j*cb, s.ctxImg, &s.lay, &sl.reads); err != nil {
			pf.End()
			return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, j, err)
		}
		bank(sl, true)
		if round > 0 {
			s.reqs = matrix.AppendInboxReqs(s.reqs[:0], round, j)
			s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.flat, cfg.B)
			if _, err := layout.BeginReadFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.reads); err != nil {
				pf.End()
				return fmt.Errorf("core: round %d vp %d: begin inbox read: %w", round, j, err)
			}
			bank(sl, false)
		}
		pf.End()
		return nil
	}

	// wait drains a pending set, charging the blocked time to the stall
	// account when recording. The span name carries the current ring depth,
	// so a trace shows which depth each residual stall was measured under.
	wait := func(ps *pdm.PendingSet) error {
		return stallWait(rec, track, stallName, ps, &stallNS)
	}

	recvItems := make([]int, v)
	sentItems := make([]int, v)

	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		var doneAll bool
		for j := 0; j < v; j++ {
			recvItems[j], sentItems[j] = 0, 0
		}
		K := len(scr)
		pf := K / 2
		var roundStart time.Time
		roundStallBase := stallNS
		if rec != nil {
			roundStart = time.Now()
		}

		// Round prologue: burst the window's first pf prefetches in
		// synchronous order, so the per-disk workers see the whole
		// read-ahead at once and can coalesce it.
		for m := 0; m < pf && m < v; m++ {
			if err := beginReads(m, round); err != nil {
				drain()
				return nil, err
			}
		}

		for j := 0; j < v; j++ {
			cur := j % K
			sl := &pend[cur]
			s := scr[cur]
			ss := rec.Begin(track, "superstep", "superstep")

			if pf == 0 {
				// K = 1: no read-ahead — the slot's own write-behind must
				// land before its image is reloaded.
				if err := wait(&sl.writes); err != nil {
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: write back: %w", round, j, err)
				}
				if err := beginReads(j, round); err != nil {
					ss.End()
					drain()
					return nil, err
				}
			}

			// (a)+(b) Context and inbox were prefetched; wait for them.
			if err := wait(&sl.reads); err != nil {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, j, err)
			}
			state, inbox, recv, err := mem.decode(codec, s.ctxImg, s.flat, round)
			if err != nil {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: %w", round, j, err)
			}
			recvItems[j] = recv

			// Slide the window: the slot VP j+pf is about to prefetch into
			// still backs VP j+pf−K's write-behind; it must land before the
			// image is reused.
			if m := j + pf; pf > 0 && m < v {
				if err := wait(&pend[m%K].writes); err != nil {
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: write back: %w", round, m-K, err)
				}
				if err := beginReads(m, round); err != nil {
					ss.End()
					drain()
					return nil, err
				}
			}

			// (c) Simulate the local computation — the prefetched reads of
			// VPs j+1 … j+pf are now in flight underneath it.
			cp := rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			cp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
			}
			if j == 0 {
				doneAll = done
			} else if done != doneAll {
				ss.End()
				drain()
				return nil, fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
			}

			// (d) Begin the outbox write (staggered) as write-behind.
			if !done {
				wb := rec.Begin(track, "outbox write", "writeback")
				s.reqs = matrix.AppendOutboxReqs(s.reqs[:0], round, j)
				for dst := 0; dst < v; dst++ {
					var msg []T
					if outbox != nil {
						msg = outbox[dst]
					}
					if err := encodeMsgInto(codec, msg, maxMsg, s.flat[dst*bpm*cfg.B:(dst+1)*bpm*cfg.B]); err != nil {
						wb.End()
						ss.End()
						drain()
						return nil, fmt.Errorf("vp %d round %d → %d: %w", j, round, dst, err)
					}
					sentItems[j] += len(msg)
					if len(msg) > res.MaxMsgObserved {
						res.MaxMsgObserved = len(msg)
					}
				}
				s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.flat, cfg.B)
				if _, err := layout.BeginWriteFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.writes); err != nil {
					wb.End()
					ss.End()
					drain()
					return nil, fmt.Errorf("core: round %d vp %d: begin outbox write: %w", round, j, err)
				}
				wb.End()
				bank(sl, false)
			} else {
				res.Outputs[j] = mem.keep(prog.Output(vp))
			}

			// (e) Begin the context write-back (consecutive).
			wb := rec.Begin(track, "ctx write", "writeback")
			if err := encodeCtxInto(codec, vp.State, maxCtx, s.ctxImg); err != nil {
				wb.End()
				ss.End()
				drain()
				return nil, fmt.Errorf("vp %d: %w", j, err)
			}
			if len(vp.State) > res.MaxCtxObserved {
				res.MaxCtxObserved = len(vp.State)
			}
			s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg, cfg.B)
			if err := layout.BeginWriteStripedScratch(arr, 0, j*cb, s.bufs, &s.lay, &sl.writes); err != nil {
				wb.End()
				ss.End()
				drain()
				return nil, fmt.Errorf("core: round %d vp %d: begin context write: %w", round, j, err)
			}
			wb.End()
			bank(sl, true)
			mem.release()

			res.CtxOps += sl.ctxOps
			res.MsgOps += sl.msgOps
			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: 0, Round: round, VP: j, Label: "superstep",
					CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
			}
			sl.reset()
		}

		// Round epilogue: every slot's write-behind must land before the
		// scratches are reused — and round r+1's inbox reads depend on this
		// round's outbox writes, so no prefetch crosses the boundary.
		for i := range pend {
			if err := wait(&pend[i].writes); err != nil {
				drain()
				return nil, fmt.Errorf("core: round %d: write back: %w", round, err)
			}
		}

		res.Rounds = round + 1
		for j := 0; j < v; j++ {
			if recvItems[j] > res.MaxH {
				res.MaxH = recvItems[j]
			}
			if sentItems[j] > res.MaxH {
				res.MaxH = sentItems[j]
			}
		}
		if doneAll {
			break
		}

		// Online adaptation (auto depth, recorded runs only): while the
		// round's measured stall stays above the threshold and a deeper
		// window is allowed, double the ring. Growth happens between
		// rounds with everything drained, changes only how far ahead the
		// window prefetches, and never the operation multiset.
		if rec != nil {
			if cfg.PipelineDepth == 0 && K < maxK {
				roundWall := time.Since(roundStart).Nanoseconds()
				if rs := stallNS - roundStallBase; rs*adaptGrowDen > roundWall*adaptGrowNum {
					newK := 2 * K
					if newK > maxK {
						newK = maxK
					}
					scr, pend = growRing(scr, pend, newK, cb, v*bpm, cfg.B)
					depthGauge.Store(int64(newK))
					stallName = fmt.Sprintf("stall k=%d", newK)
					rec.Event(track, fmt.Sprintf("pipeline depth → %d", newK), "adapt")
				}
			}
		}
	}

	if rec != nil {
		rec.Counter("core_p0_stall_ns").Add(stallNS)
	}
	res.Stall = time.Duration(stallNS)
	res.Depth = len(scr)
	res.IOPerProc = []pdm.IOStats{arr.Stats()}
	res.IO = arr.Stats()
	res.Syscalls = pdm.SyscallsOf(arr)
	for i := 0; i < arr.D(); i++ {
		if t := arr.Disk(i).Tracks(); t > res.MaxTracks {
			res.MaxTracks = t
		}
	}
	res.Supersteps = res.Rounds * v // v compound supersteps per simulated round
	ledgerAdd(cfg, false, cb, bpm, false, ledBase, res)
	return res, nil
}
