package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgm"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// pipeProcScratch is one real processor's working storage under the
// pipelined schedule: a ring of K superstepScratch images (local VP l
// computes out of img[l mod K] while the slots ahead of it prefetch and
// the slots behind it drain) plus the cross-processor batch containers
// shared with the synchronous schedule. The route phase reuses the same
// ring, cycling landed batches through all K slots.
type pipeProcScratch[T any] struct {
	img  []*superstepScratch
	send [][][]T
	mem  *vpMem[T]
}

// runParPipelined is runPar under the PipelineOn schedule: each real
// processor software-pipelines its local superstep loop exactly as
// runSeqPipelined does — a depth-K ring with prefetch distance ⌊K/2⌋,
// opened by a per-round burst of the window's reads, context
// write-behind drained lazily on slot reuse — and pipelines the route
// phase over the same K slots, encoding up to K landed batches while
// earlier ones' blocks are still being written. Channel sends (the real
// "network") stay synchronous, so the barrier protocol and its
// compensating-send contract are unchanged from runPar.
//
// As in the sequential machine, only the begin order of operations
// changes, never their multiset or addresses: within a round, the
// hoisted reads of VPs l+1 … l+⌊K/2⌋ (context runs and inbox regions)
// are address-disjoint from the writes of VPs ≤ l (context runs ≤ l),
// route writes target the opposite-parity matrix from the round's
// reads, and each processor drains its write-behind before returning
// from the round, so nothing crosses the barrier. PDM counts are
// bit-identical to PipelineOff at every depth.
func runParPipelined[T any](prog cgm.Program[T], codec wordcodec.Codec[T], cfg Config, inputs [][]T) (*Result[T], error) {
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

	// Ring depth per processor: capped at v (the route phase cycles up
	// to v batches through the ring even when localV is small), bounded
	// by M against k working sets.
	slotBlocks := cb + v*bpm
	k, maxK, err := pipeDepth(cfg, v, slotBlocks*cfg.B)
	if err != nil {
		return nil, err
	}

	// Per-processor state.
	arrays := make([]*pdm.DiskArray, p)
	matrices := make([][2]layout.Rect, p)
	scrs := make([]*pipeProcScratch[T], p)
	for i := 0; i < p; i++ {
		a, err := cfg.newArray(i, queueHint(maxK, slotBlocks, cfg.D))
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
		s := &pipeProcScratch[T]{img: make([]*superstepScratch, 0, maxK), mem: newVPMem[T](v, cfg.CheckedIO)}
		for len(s.img) < k {
			s.img = append(s.img, newSuperstepScratch(cb, v*bpm, cfg.B))
		}
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
	var depthGauge atomic.Int64
	if rec != nil {
		mtrack = rec.Track("machine")
		tracks = make([]obs.TrackID, p)
		for i := 0; i < p; i++ {
			tracks[i] = rec.Track(fmt.Sprintf("proc %d", i))
			arrays[i].SetRecorder(rec, i)
		}
		depthGauge.Store(int64(k))
		rec.Gauge("core_pipeline_depth", depthGauge.Load)
	}

	owner := func(vp int) int { return vp / localV }
	localIdx := func(vp int) int { return vp % localV }
	cacheCtx := cfg.CacheContexts && localV == 1
	var cached [][]T // resident contexts, nil unless cacheCtx
	if cacheCtx {
		cached = make([][]T, p)
	}

	res := &Result[T]{Outputs: make([][]T, v)}

	// Per-proc split-phase state, owned by processor i's goroutine for the
	// round's duration (and by this goroutine during input distribution);
	// rounds are sequenced by the barrier, so reuse — and the between-round
	// ring growth below — is race-free.
	pends := make([][]vpInflight, p)
	routePends := make([][]pdm.PendingSet, p)
	for i := 0; i < p; i++ {
		pends[i] = make([]vpInflight, k, maxK)
		routePends[i] = make([]pdm.PendingSet, k, maxK)
	}

	// Input distribution: write-behind over each processor's ring, drained
	// before round 0's prologue (see distributeInputs).
	ledBase := rec.StepCount()
	initSpan := rec.Begin(mtrack, "input distribution", "init")
	maxObserved, stallNS, err := distributeInputs(prog, codec, cfg, inputs, maxCtx, func(j int) ctxSlot {
		i, l := owner(j), localIdx(j)
		return ctxSlot{arr: arrays[i], s: scrs[i].img[l%k], sl: &pends[i][l%k], start: l * cb}
	}, cached, rec, mtrack)
	if err != nil {
		initSpan.End()
		return nil, err
	}
	res.MaxCtxObserved = maxObserved
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
		stallNS        int64     // time blocked in Wait (recording only)
		finish         time.Time // when this proc's work ended (recording only)
	}

	prevOps := make([]int64, p)
	for i, a := range arrays {
		prevOps[i] = a.Stats().ParallelOps
	}
	prevBlocks := make([]int64, p)
	for i, a := range arrays {
		prevBlocks[i] = a.Stats().BlocksMoved
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
		pend := pends[i]
		routePend := routePends[i]
		K := len(scr.img)
		pf := K / 2
		readM := matrices[i][round%2]
		writeParity := (round + 1) % 2
		stallName := "stall"
		if rec != nil {
			stallName = fmt.Sprintf("stall k=%d", K)
		}

		drain := func() {
			for k := range pend {
				_ = pend[k].reads.Wait() // error path; the reported error wins
				_ = pend[k].writes.Wait()
			}
			for k := range routePend {
				_ = routePend[k].Wait()
			}
		}

		wait := func(ps *pdm.PendingSet) error {
			return stallWait(rec, track, stallName, ps, &out.stallNS)
		}

		lastOps, lastBlocks := prevOps[i], prevBlocks[i]
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

		beginReads := func(l int) error {
			sl := &pend[l%K]
			s := scr.img[l%K]
			pf := rec.Begin(track, "prefetch", "prefetch")
			if !cacheCtx {
				if err := layout.BeginReadStripedScratch(arr, 0, l*cb, s.ctxImg, &s.lay, &sl.reads); err != nil {
					pf.End()
					return fmt.Errorf("core: round %d vp %d: begin context read: %w", round, i*localV+l, err)
				}
				bank(sl, true)
			}
			if round > 0 {
				s.reqs = readM.AppendRegionReqs(s.reqs[:0], l)
				s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.flat, cfg.B)
				if _, err := layout.BeginReadFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &sl.reads); err != nil {
					pf.End()
					return fmt.Errorf("core: round %d vp %d: begin inbox read: %w", round, i*localV+l, err)
				}
				bank(sl, false)
			}
			pf.End()
			return nil
		}

		// Round prologue: burst the window's first pf prefetches so the
		// per-disk workers can coalesce the whole read-ahead.
		for m := 0; m < pf && m < localV; m++ {
			if err := beginReads(m); err != nil {
				drain()
				out.err = err
				return out
			}
		}

		doneLocal := false
		for l := 0; l < localV; l++ {
			j := i*localV + l
			cur := l % K
			sl := &pend[cur]
			s := scr.img[cur]
			ss := rec.Begin(track, "superstep", "superstep")

			if pf == 0 {
				// K = 1: the slot's write-behind lands before its reload.
				if err := wait(&sl.writes); err != nil {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write back: %w", round, j, err)
					return out
				}
				if err := beginReads(l); err != nil {
					ss.End()
					drain()
					out.err = err
					return out
				}
			}

			// (a)+(b) Context and inbox were prefetched; wait for them.
			if err := wait(&sl.reads); err != nil {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: round %d vp %d: read context/inbox: %w", round, j, err)
				return out
			}
			ctxImg := s.ctxImg
			if cacheCtx {
				ctxImg = nil
			}
			state, inbox, recv, err := mem.decode(codec, ctxImg, s.flat, round)
			if err != nil {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: round %d vp %d: %w", round, j, err)
				return out
			}
			if cacheCtx {
				state = cached[i]
			}
			out.recv[l] = recv

			// Slide the window: the slot VP l+pf prefetches into still
			// backs VP l+pf−K's write-behind.
			if m := l + pf; pf > 0 && m < localV {
				if err := wait(&pend[m%K].writes); err != nil {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write back: %w", round, i*localV+m-K, err)
					return out
				}
				if err := beginReads(m); err != nil {
					ss.End()
					drain()
					out.err = err
					return out
				}
			}

			// (c) Compute, with the window's reads in flight underneath.
			cp := rec.Begin(track, "compute", "phase")
			vp := &cgm.VP[T]{ID: j, V: v, State: state}
			outbox, done := prog.Round(vp, round, inbox)
			cp.End()
			if outbox != nil && len(outbox) != v {
				ss.End()
				drain()
				out.err = fmt.Errorf("core: vp %d round %d returned outbox of length %d, want %d or nil",
					j, round, len(outbox), v)
				return out
			}
			if l == 0 {
				doneLocal = done
			} else if done != doneLocal {
				ss.End()
				drain()
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
			// (e) Begin the context write-behind (or keep resident).
			if len(vp.State) > out.maxCtx {
				out.maxCtx = len(vp.State)
			}
			if cacheCtx {
				if len(vp.State) > maxCtx {
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: context of %d items exceeds μ = %d",
						round, j, len(vp.State), maxCtx)
					return out
				}
				cached[i] = mem.keep(vp.State)
			} else {
				wp := rec.Begin(track, "ctx write", "writeback")
				if err := encodeCtxInto(codec, vp.State, maxCtx, s.ctxImg); err != nil {
					wp.End()
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
					return out
				}
				s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.ctxImg, cfg.B)
				if err := layout.BeginWriteStripedScratch(arr, 0, l*cb, s.bufs, &s.lay, &sl.writes); err != nil {
					wp.End()
					ss.End()
					drain()
					out.err = fmt.Errorf("core: round %d vp %d: write context: %w", round, j, err)
					return out
				}
				wp.End()
				bank(sl, true)
			}
			mem.release()
			out.ctxOps += sl.ctxOps
			out.msgOps += sl.msgOps
			if rec != nil {
				ss.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: j, Label: "superstep",
					CtxOps: sl.ctxOps, MsgOps: sl.msgOps, Blocks: sl.blocks})
			}
			sl.reset()
		}

		// The route phase reuses the scratch ring; the VP loop's
		// write-behind must land first.
		for k := range pend {
			if err := wait(&pend[k].writes); err != nil {
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write back: %w", round, i, err)
				return out
			}
		}

		// Receive exactly v batches (one per virtual processor in the
		// machine) and lay their messages out for the next superstep,
		// pipelined over the ring: encode batch n while up to K−1 earlier
		// batches' blocks are still being written — the same burst the VP
		// loop gives the coalescing workers, now on the write side.
		rt := rec.Begin(track, "route batches", "route")
		writeM := matrices[i][writeParity]
		var rtOps, rtBlocks int64
		nb := 0
		for got := 0; got < v; got++ {
			b := <-chans[i]
			if b.final {
				continue
			}
			s := scr.img[nb%K]
			if err := wait(&routePend[nb%K]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch: %w", round, i, err)
				return out
			}
			s.reqs = s.reqs[:0]
			for dl := 0; dl < localV; dl++ {
				if err := encodeMsgInto(codec, b.msgs[dl], maxMsg, s.flat[dl*bpm*cfg.B:(dl+1)*bpm*cfg.B]); err != nil {
					rt.End()
					drain()
					out.err = fmt.Errorf("vp %d round %d → %d: %w", b.srcVP, round, i*localV+dl, err)
					return out
				}
				s.reqs = writeM.AppendSlotReqs(s.reqs, dl, b.srcVP)
			}
			s.bufs = layout.SplitBlocksInto(s.bufs[:0], s.flat[:localV*bpm*cfg.B], cfg.B)
			if _, err := layout.BeginWriteFIFOScratch(arr, s.reqs, s.bufs, &s.lay, &routePend[nb%K]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch from vp %d: %w", round, i, b.srcVP, err)
				return out
			}
			st := arr.Stats()
			rtOps += st.ParallelOps - lastOps
			rtBlocks += st.BlocksMoved - lastBlocks
			lastOps, lastBlocks = st.ParallelOps, st.BlocksMoved
			nb++
		}
		// The next round's prologue reuses the scratch images; the route
		// write-behind must land before this processor leaves the barrier.
		for k := range routePend {
			if err := wait(&routePend[k]); err != nil {
				rt.End()
				drain()
				out.err = fmt.Errorf("core: round %d proc %d: write batch: %w", round, i, err)
				return out
			}
		}
		out.msgOps += rtOps
		if rec != nil {
			rt.EndIO(obs.SuperstepIO{Proc: i, Round: round, VP: -1, Label: "route",
				MsgOps: rtOps, Blocks: rtBlocks})
			out.finish = time.Now()
		}

		out.done = doneLocal
		prevOps[i] = lastOps
		prevBlocks[i] = lastBlocks
		return out
	}

	const maxRounds = 1 << 20
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("core: program exceeded %d rounds", maxRounds)
		}
		K := len(scrs[0].img)
		var roundStart time.Time
		if rec != nil {
			roundStart = time.Now()
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
		var roundStall int64
		for i := range outs {
			if outs[i].done != done {
				return nil, fmt.Errorf("core: real processor %d disagreed on termination at round %d", i, round)
			}
			res.CtxOps += outs[i].ctxOps
			res.MsgOps += outs[i].msgOps
			res.CommItems += outs[i].comm
			stallNS += outs[i].stallNS
			roundStall += outs[i].stallNS
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

		// Online adaptation (auto depth, recorded runs only): rounds are
		// barrier-sequenced, so growing every processor's ring here is
		// race-free — everything is drained. As in the sequential driver,
		// growth changes only how far ahead the window prefetches, never
		// the operation multiset.
		if rec != nil {
			if cfg.PipelineDepth == 0 && K < maxK {
				roundWall := time.Since(roundStart).Nanoseconds()
				if roundStall*adaptGrowDen > int64(p)*roundWall*adaptGrowNum {
					newK := 2 * K
					if newK > maxK {
						newK = maxK
					}
					for i := 0; i < p; i++ {
						scrs[i].img, pends[i] = growRing(scrs[i].img, pends[i], newK, cb, v*bpm, cfg.B)
						for len(routePends[i]) < newK {
							routePends[i] = append(routePends[i], pdm.PendingSet{})
						}
					}
					depthGauge.Store(int64(newK))
					rec.Event(mtrack, fmt.Sprintf("pipeline depth → %d", newK), "adapt")
				}
			}
		}
	}

	if rec != nil {
		rec.Counter("core_stall_ns").Add(stallNS)
	}
	res.Stall = time.Duration(stallNS)
	res.Depth = len(scrs[0].img)
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
