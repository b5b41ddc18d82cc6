package core

import (
	"fmt"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// runSeq is Algorithm 2: SeqCompoundSuperstep iterated until the program
// finishes. One real processor, D disks.
//
// Disk map: contexts live first — VP j's context occupies striped blocks
// [j·cb, (j+1)·cb) from track 0 — followed by the single-copy staggered
// message matrix with Observation 2's alternating placement.
//
// All transient storage of the round loop lives in one superstepScratch
// and one vpMem decode arena, so steady-state supersteps allocate nothing
// of their own. The parallel I/O sequence is identical to the scratch-
// free formulation: the PDM accounting is invariant under this reuse.
//
// This body is the synchronous reference schedule (PipelineOff): every
// parallel I/O runs to completion before the next phase. Under the
// default PipelineOn it dispatches to runSeqPipelined, which overlaps the
// same operations with compute — see seqpipe.go.
func runSeq[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	if cfg.Pipeline == PipelineOn {
		return runSeqPipelined(prog, codec, cfg, inputs)
	}
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

	if cfg.M > 0 {
		need := cb*cfg.B + v*bpm*cfg.B // one context + one full inbox
		if need > cfg.M {
			return nil, fmt.Errorf("core: superstep working set %d words exceeds M = %d (μ=%d items, slot=%d items × V=%d)",
				need, cfg.M, maxCtx, maxMsg, v)
		}
	}

	matrix, err := layout.NewMatrix(v, bpm, cfg.D, ctxTracks)
	if err != nil {
		return nil, err
	}
	arr, err := cfg.newArray(0, 0)
	if err != nil {
		return nil, err
	}
	defer arr.Close()

	rec := cfg.Recorder
	var track obs.TrackID
	if rec != nil {
		track = rec.Track("proc 0")
		arr.SetRecorder(rec, 0)
	}

	res := &Result[T]{Outputs: make([][]T, v)}
	scr := newSuperstepScratch(cb, v*bpm, cfg.B)
	mem := newVPMem[T](v, cfg.CheckedIO)

	writeCtx := func(j int, state []T) error {
		if err := encodeCtxInto(codec, state, maxCtx, scr.ctxImg); err != nil {
			return fmt.Errorf("vp %d: %w", j, err)
		}
		if len(state) > res.MaxCtxObserved {
			res.MaxCtxObserved = len(state)
		}
		scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.ctxImg, cfg.B)
		return layout.WriteStripedScratch(arr, 0, j*cb, scr.bufs, &scr.lay)
	}

	// Input distribution: initialise and write every context.
	ledBase := rec.StepCount()
	initSpan := rec.Begin(track, "input distribution", "init")
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		prog.Init(vp, inputs[j])
		if err := writeCtx(j, vp.State); err != nil {
			initSpan.End()
			return nil, err
		}
	}
	res.CtxOps = arr.Stats().ParallelOps
	if rec != nil {
		initSpan.EndIO(obs.SuperstepIO{Proc: 0, Round: -1, VP: -1, Label: "init",
			CtxOps: res.CtxOps, Blocks: arr.Stats().BlocksMoved})
	}

	var prevOps int64 = res.CtxOps
	account := func(isCtx bool) {
		now := arr.Stats().ParallelOps
		if isCtx {
			res.CtxOps += now - prevOps
		} else {
			res.MsgOps += now - prevOps
		}
		prevOps = now
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

		for j := 0; j < v; j++ {
			var ssCtx0, ssMsg0, ssBlk0 int64
			ss := rec.Begin(track, "superstep", "superstep")
			if rec != nil {
				ssCtx0, ssMsg0, ssBlk0 = res.CtxOps, res.MsgOps, arr.Stats().BlocksMoved
			}

			// (a) Read the context of virtual processor j.
			sp := rec.Begin(track, "ctx read", "phase")
			if err := layout.ReadStripedScratch(arr, 0, j*cb, scr.ctxImg, &scr.lay); err != nil {
				sp.End()
				ss.End()
				return nil, fmt.Errorf("core: round %d vp %d: read context: %w", round, j, err)
			}
			sp.End()
			account(true)

			// (b) Read the packets received by virtual processor j.
			if round > 0 {
				sp = rec.Begin(track, "inbox read", "phase")
				scr.reqs = matrix.AppendInboxReqs(scr.reqs[:0], round, j)
				scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.flat, cfg.B)
				if _, err := layout.ReadFIFOScratch(arr, scr.reqs, scr.bufs, &scr.lay); err != nil {
					sp.End()
					ss.End()
					return nil, fmt.Errorf("core: round %d vp %d: read inbox: %w", round, j, err)
				}
				sp.End()
				account(false)
			}
			state, inbox, recv, err := mem.decode(codec, scr.ctxImg, scr.flat, round)
			if err != nil {
				ss.End()
				return nil, fmt.Errorf("core: round %d vp %d: %w", round, j, err)
			}
			recvItems[j] = recv

			// (c) Simulate the local computation.
			sp = rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			sp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				return nil, fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
			}
			if j == 0 {
				doneAll = done
			} else if done != doneAll {
				ss.End()
				return nil, fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
			}

			// (d) Write the packets sent by virtual processor j (staggered).
			if !done {
				sp = rec.Begin(track, "outbox write", "phase")
				scr.reqs = matrix.AppendOutboxReqs(scr.reqs[:0], round, j)
				for dst := 0; dst < v; dst++ {
					var msg []T
					if outbox != nil {
						msg = outbox[dst]
					}
					if err := encodeMsgInto(codec, msg, maxMsg, scr.flat[dst*bpm*cfg.B:(dst+1)*bpm*cfg.B]); err != nil {
						sp.End()
						ss.End()
						return nil, fmt.Errorf("vp %d round %d → %d: %w", j, round, dst, err)
					}
					sentItems[j] += len(msg)
					if len(msg) > res.MaxMsgObserved {
						res.MaxMsgObserved = len(msg)
					}
				}
				scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.flat, cfg.B)
				if _, err := layout.WriteFIFOScratch(arr, scr.reqs, scr.bufs, &scr.lay); err != nil {
					sp.End()
					ss.End()
					return nil, fmt.Errorf("core: round %d vp %d: write outbox: %w", round, j, err)
				}
				sp.End()
				account(false)
			} else {
				res.Outputs[j] = mem.keep(prog.Output(vp))
			}

			// (e) Write the changed context back (consecutive).
			sp = rec.Begin(track, "ctx write", "phase")
			if err := writeCtx(j, vp.State); err != nil {
				sp.End()
				ss.End()
				return nil, err
			}
			sp.End()
			account(true)
			mem.release()

			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: 0, Round: round, VP: j, Label: "superstep",
					CtxOps: res.CtxOps - ssCtx0, MsgOps: res.MsgOps - ssMsg0,
					Blocks: arr.Stats().BlocksMoved - ssBlk0})
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
	}

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
