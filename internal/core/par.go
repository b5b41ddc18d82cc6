package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// batch is what one virtual processor sends to one real processor in one
// superstep: its messages for every virtual processor local to that real
// processor. A final batch carries no messages (the algorithm finished).
type batch[T any] struct {
	srcVP int
	msgs  [][]T // indexed by local VP of the destination processor; nil entries = empty
	final bool
}

// procScratch is one real processor's superstepScratch plus the parallel
// machine's reusable cross-processor batch containers. send[l·p+k] is the
// message container local VP l reuses for its batch to real processor k;
// a batch sent in round r is consumed by its receiver within round r
// (every processor drains all v batches before the round barrier), so
// reusing the container next round never clobbers an unread batch.
type procScratch[T any] struct {
	*superstepScratch
	send [][][]T
	mem  *vpMem[T]
}

// runPar is Algorithm 3: ParCompoundSuperstep. p real processors run as
// goroutines, each with its own D-disk array; each simulates v/p virtual
// processors per round and routes generated messages to the destination
// real processor over channels, which lays them out on its own disks.
//
// Per-processor disk map: contexts of the v/p local virtual processors
// first, then two rectangular message matrices used in ping-pong by round
// parity (incoming batches may arrive before the local inboxes of the
// same superstep are consumed, so the single-copy alternation of the
// sequential machine does not apply).
//
// Each real processor owns one procScratch for the lifetime of the run;
// the parallel I/O sequence is identical to the scratch-free formulation.
//
// This body is the synchronous reference schedule (PipelineOff). Under
// the default PipelineOn it dispatches to runParPipelined, which overlaps
// the same operations with compute — see parpipe.go.
func runPar[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
	if cfg.Pipeline == PipelineOn {
		return runParPipelined(prog, codec, cfg, inputs)
	}
	v, p := cfg.V, cfg.P
	if len(inputs) != v {
		return nil, fmt.Errorf("core: %d input partitions for V = %d", len(inputs), v)
	}
	localV := v / p
	n := 0
	for _, in := range inputs {
		n += len(in)
	}
	iw := codec.Words()
	maxCtx, maxMsg := limits(prog, cfg, n)
	cw := ctxWords(maxCtx, iw)
	sw := slotWords(maxMsg, iw)
	cb := pdm.BlocksFor(cw, cfg.B)
	bpm := pdm.BlocksFor(sw, cfg.B)
	ctxTracks := (localV*cb+cfg.D-1)/cfg.D + 1

	if cfg.M > 0 {
		need := cb*cfg.B + v*bpm*cfg.B
		if need > cfg.M {
			return nil, fmt.Errorf("core: superstep working set %d words exceeds M = %d", need, cfg.M)
		}
	}

	// Per-processor state.
	arrays := make([]*pdm.DiskArray, p)
	matrices := make([][2]layout.Rect, p)
	scrs := make([]*procScratch[T], p)
	for i := 0; i < p; i++ {
		a, err := cfg.newArray(i, 0)
		if err != nil {
			return nil, err
		}
		arrays[i] = a
		m0, err := layout.NewRect(v, localV, bpm, cfg.D, ctxTracks)
		if err != nil {
			return nil, err
		}
		m1, err := layout.NewRect(v, localV, bpm, cfg.D, ctxTracks+m0.TotalTracks())
		if err != nil {
			return nil, err
		}
		matrices[i] = [2]layout.Rect{m0, m1}
		s := &procScratch[T]{superstepScratch: newSuperstepScratch(cb, v*bpm, cfg.B), mem: newVPMem[T](v, cfg.CheckedIO)}
		s.send = make([][][]T, localV*p)
		for k := range s.send {
			s.send[k] = make([][]T, localV)
		}
		scrs[i] = s
	}
	defer func() {
		for _, a := range arrays {
			_ = a.Close() // cleanup path; I/O errors already surfaced per op
		}
	}()

	rec := cfg.Recorder
	var mtrack obs.TrackID
	var tracks []obs.TrackID
	if rec != nil {
		mtrack = rec.Track("machine")
		tracks = make([]obs.TrackID, p)
		for i := 0; i < p; i++ {
			tracks[i] = rec.Track(fmt.Sprintf("proc %d", i))
			arrays[i].SetRecorder(rec, i)
		}
	}

	owner := func(vp int) int { return vp / localV }
	localIdx := func(vp int) int { return vp % localV }
	cacheCtx := cfg.CacheContexts && localV == 1
	cached := make([][]T, p) // resident contexts when cacheCtx

	writeCtx := func(proc, l int, state []T) error {
		scr := scrs[proc]
		if err := encodeCtxInto(codec, state, maxCtx, scr.ctxImg); err != nil {
			return err
		}
		scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.ctxImg, cfg.B)
		return layout.WriteStripedScratch(arrays[proc], 0, l*cb, scr.bufs, &scr.lay)
	}

	res := &Result[T]{Outputs: make([][]T, v)}

	// Input distribution.
	ledBase := rec.StepCount()
	initSpan := rec.Begin(mtrack, "input distribution", "init")
	for j := 0; j < v; j++ {
		vp := &cgm.VP[T]{ID: j, V: v}
		prog.Init(vp, inputs[j])
		if len(vp.State) > res.MaxCtxObserved {
			res.MaxCtxObserved = len(vp.State)
		}
		if cacheCtx {
			if len(vp.State) > maxCtx {
				initSpan.End()
				return nil, fmt.Errorf("core: context of %d items exceeds μ = %d", len(vp.State), maxCtx)
			}
			cached[owner(j)] = vp.State
			continue
		}
		if err := writeCtx(owner(j), localIdx(j), vp.State); err != nil {
			initSpan.End()
			return nil, err
		}
	}
	initOps := int64(0)
	for _, a := range arrays {
		initOps += a.Stats().ParallelOps
	}
	res.CtxOps = initOps
	if rec != nil {
		var blocks int64
		for _, a := range arrays {
			blocks += a.Stats().BlocksMoved
		}
		initSpan.EndIO(obs.SuperstepIO{Proc: -1, Round: -1, VP: -1, Label: "init",
			CtxOps: initOps, Blocks: blocks})
	}

	chans := make([]chan batch[T], p)
	for i := range chans {
		chans[i] = make(chan batch[T], v) // each proc receives exactly v batches per round
	}

	type procOut struct {
		done           bool
		err            error
		ctxOps, msgOps int64
		sent, recv     []int // per local VP items
		comm           int64
		maxMsg, maxCtx int
		finish         time.Time // when this proc's work ended (recording only)
	}

	prevOps := make([]int64, p)
	for i, a := range arrays {
		prevOps[i] = a.Stats().ParallelOps
	}

	// Per-proc h-relation accounting, reused across rounds like the scratch.
	sentItems := make([][]int, p)
	recvItems := make([][]int, p)
	for i := 0; i < p; i++ {
		sentItems[i] = make([]int, localV)
		recvItems[i] = make([]int, localV)
	}

	// emcgm:barrier(send=chans,rounds=v)
	runProc := func(i, round int) (out procOut) {
		out = procOut{sent: sentItems[i], recv: recvItems[i]}
		for l := 0; l < localV; l++ {
			out.sent[l], out.recv[l] = 0, 0
		}
		var track obs.TrackID
		if rec != nil {
			track = tracks[i]
		}
		// Every processor's receive loop expects exactly v batches per
		// round. If this processor aborts mid-superstep it must still
		// emit the batches its remaining local VPs owe, or its peers
		// block forever on their drain loops.
		sentVPs := 0
		defer func() {
			if out.err == nil {
				return
			}
			for l := sentVPs; l < localV; l++ {
				for k := 0; k < p; k++ {
					chans[k] <- batch[T]{srcVP: i*localV + l, final: true}
				}
			}
		}()
		arr := arrays[i]
		scr := scrs[i]
		mem := scr.mem
		readM := matrices[i][round%2]
		writeParity := (round + 1) % 2
		ctxOps, msgOps := int64(0), int64(0)
		last := prevOps[i]
		account := func(isCtx bool) {
			now := arr.Stats().ParallelOps
			if isCtx {
				ctxOps += now - last
			} else {
				msgOps += now - last
			}
			last = now
		}

		doneLocal := false
		for l := 0; l < localV; l++ {
			j := i*localV + l
			var ssCtx0, ssMsg0, ssBlk0 int64
			ss := rec.Begin(track, "superstep", "superstep")
			if rec != nil {
				ssCtx0, ssMsg0, ssBlk0 = ctxOps, msgOps, arr.Stats().BlocksMoved
			}
			// (a) Context in (skipped when resident).
			var ctxImg []pdm.Word
			if !cacheCtx {
				sp := rec.Begin(track, "ctx read", "phase")
				if err := layout.ReadStripedScratch(arr, 0, l*cb, scr.ctxImg, &scr.lay); err != nil {
					sp.End()
					ss.End()
					out.err = fmt.Errorf("core: round %d vp %d: read context: %w", round, j, err)
					return out
				}
				sp.End()
				account(true)
				ctxImg = scr.ctxImg
			}
			// (b) Inbox in.
			if round > 0 {
				sp := rec.Begin(track, "inbox read", "phase")
				scr.reqs = readM.AppendRegionReqs(scr.reqs[:0], l)
				scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.flat, cfg.B)
				if _, err := layout.ReadFIFOScratch(arr, scr.reqs, scr.bufs, &scr.lay); err != nil {
					sp.End()
					ss.End()
					out.err = fmt.Errorf("core: round %d vp %d: read inbox: %w", round, j, err)
					return out
				}
				sp.End()
				account(false)
			}
			state, inbox, recv, err := mem.decode(codec, ctxImg, scr.flat, round)
			if err != nil {
				ss.End()
				out.err = fmt.Errorf("core: round %d vp %d: %w", round, j, err)
				return out
			}
			if cacheCtx {
				state = cached[i]
			}
			out.recv[l] = recv
			// (c) Compute.
			cp := rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			cp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				out.err = fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
				return out
			}
			if l == 0 {
				doneLocal = done
			} else if done != doneLocal {
				ss.End()
				out.err = fmt.Errorf("core: vp %d disagreed on termination at round %d", j, round)
				return out
			}
			if done {
				res.Outputs[j] = mem.keep(prog.Output(vp))
			}
			// (d) Send generated messages to their real destinations.
			sp := rec.Begin(track, "send", "phase")
			for k := 0; k < p; k++ {
				b := batch[T]{srcVP: j, final: done}
				if !done {
					msgs := scr.send[l*p+k]
					for dl := 0; dl < localV; dl++ {
						msgs[dl] = nil
						dst := k*localV + dl
						if outbox != nil {
							msgs[dl] = mem.keep(outbox[dst])
							if len(outbox[dst]) > out.maxMsg {
								out.maxMsg = len(outbox[dst])
							}
							out.sent[l] += len(outbox[dst])
							if k != i {
								out.comm += int64(len(outbox[dst]))
							}
						}
					}
					b.msgs = msgs
				}
				chans[k] <- b
			}
			sp.End()
			sentVPs++
			// (e) Context out (or keep resident).
			if len(vp.State) > out.maxCtx {
				out.maxCtx = len(vp.State)
			}
			if cacheCtx {
				if len(vp.State) > maxCtx {
					ss.End()
					out.err = fmt.Errorf("core: round %d vp %d: context of %d items exceeds μ = %d",
						round, j, len(vp.State), maxCtx)
					return out
				}
				cached[i] = mem.keep(vp.State)
			} else {
				wp := rec.Begin(track, "ctx write", "phase")
				if err := writeCtx(i, l, vp.State); err != nil {
					wp.End()
					ss.End()
					out.err = fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
					return out
				}
				wp.End()
				account(true)
			}
			mem.release()
			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: j, Label: "superstep",
					CtxOps: ctxOps - ssCtx0, MsgOps: msgOps - ssMsg0,
					Blocks: arr.Stats().BlocksMoved - ssBlk0})
			}
		}

		// Receive exactly v batches (one per virtual processor in the
		// machine) and lay their messages out for the next superstep.
		var rtMsg0, rtBlk0 int64
		rt := rec.Begin(track, "route batches", "route")
		if rec != nil {
			rtMsg0, rtBlk0 = msgOps, arr.Stats().BlocksMoved
		}
		writeM := matrices[i][writeParity]
		for got := 0; got < v; got++ {
			b := <-chans[i]
			if b.final {
				continue
			}
			scr.reqs = scr.reqs[:0]
			for dl := 0; dl < localV; dl++ {
				if err := encodeMsgInto(codec, b.msgs[dl], maxMsg, scr.flat[dl*bpm*cfg.B:(dl+1)*bpm*cfg.B]); err != nil {
					rt.End()
					out.err = fmt.Errorf("vp %d round %d → %d: %w", b.srcVP, round, i*localV+dl, err)
					return out
				}
				scr.reqs = writeM.AppendSlotReqs(scr.reqs, dl, b.srcVP)
			}
			scr.bufs = layout.SplitBlocksInto(scr.bufs[:0], scr.flat[:localV*bpm*cfg.B], cfg.B)
			if _, err := layout.WriteFIFOScratch(arr, scr.reqs, scr.bufs, &scr.lay); err != nil {
				rt.End()
				out.err = fmt.Errorf("core: round %d proc %d: write batch from vp %d: %w", round, i, b.srcVP, err)
				return out
			}
			account(false)
		}
		if rec != nil {
			rt.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: -1, Label: "route",
				MsgOps: msgOps - rtMsg0, Blocks: arr.Stats().BlocksMoved - rtBlk0})
			out.finish = time.Now()
		}

		out.done = doneLocal
		out.ctxOps, out.msgOps = ctxOps, msgOps
		prevOps[i] = last
		return out
	}

	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		rd := rec.Begin(mtrack, "round", "round")
		outs := make([]procOut, p)
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i] = runProc(i, round)
			}(i)
		}
		wg.Wait()
		if rec != nil {
			// Barrier wait: the gap between each processor finishing its
			// round work and the slowest processor releasing the barrier.
			for i := 0; i < p; i++ {
				if !outs[i].finish.IsZero() {
					rec.SpanSince(tracks[i], "barrier wait", "wait", outs[i].finish)
				}
			}
		}
		rd.End()

		for i := range outs {
			if outs[i].err != nil {
				return nil, outs[i].err
			}
		}
		done := outs[0].done
		for i := range outs {
			if outs[i].done != done {
				return nil, fmt.Errorf("core: real processor %d disagreed on termination at round %d", i, round)
			}
			res.CtxOps += outs[i].ctxOps
			res.MsgOps += outs[i].msgOps
			res.CommItems += outs[i].comm
			if outs[i].maxMsg > res.MaxMsgObserved {
				res.MaxMsgObserved = outs[i].maxMsg
			}
			if outs[i].maxCtx > res.MaxCtxObserved {
				res.MaxCtxObserved = outs[i].maxCtx
			}
			for _, h := range outs[i].sent {
				if h > res.MaxH {
					res.MaxH = h
				}
			}
			for _, h := range outs[i].recv {
				if h > res.MaxH {
					res.MaxH = h
				}
			}
		}
		res.Rounds = round + 1
		if done {
			break
		}
	}

	res.IOPerProc = make([]pdm.IOStats, p)
	for i, a := range arrays {
		res.IOPerProc[i] = a.Stats()
		res.IO.Add(a.Stats())
		res.Syscalls += pdm.SyscallsOf(a)
		for k := 0; k < a.D(); k++ {
			if t := a.Disk(k).Tracks(); t > res.MaxTracks {
				res.MaxTracks = t
			}
		}
	}
	res.Supersteps = res.Rounds * localV
	ledgerAdd(cfg, true, cb, bpm, cacheCtx, ledBase, res)
	return res, nil
}
