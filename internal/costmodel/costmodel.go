// Package costmodel reconciles the paper's predicted I/O cost with the
// simulation's measured behaviour. For every compound superstep it
// computes the parallel-I/O count the Theorem 2/3 accounting predicts —
// λ context swaps at ⌈c/(DB)⌉ striped operations each, plus the
// message-matrix FIFO schedule replayed symbolically over the staggered
// layout — and records it side-by-side with the measured obs span
// (duration, CtxOps/MsgOps/Blocks) in a per-run Ledger. Predicted counts
// must match measured counts bit-exactly (Reconcile enforces this); the
// pdm.TimeModel then converts both into modelled time so measured wall
// time has a closed-form prediction to drift against.
//
// The predictor never touches a disk: layout.Matrix/Rect block addresses
// depend on BaseTrack only through the Track field, and the FIFO packing
// rule depends only on the Disk sequence, so the schedule can be replayed
// at BaseTrack 0 from the geometry parameters alone.
package costmodel

import (
	"repro/internal/layout"
	"repro/internal/pdm"
)

// Machine captures the geometry a run was simulated with — everything
// the Theorem 2/3 predictor needs, all derivable from core.Config plus
// the program's limits. CB is blocks per context (⌈c/B⌉), BPM blocks per
// message slot (b′). Rounds is the number of compound rounds the run
// executed; the terminal round skips outbox writes (sequential) and
// lands no batches (parallel), so prediction needs it.
type Machine struct {
	Par      bool `json:"par"`
	V        int  `json:"v"`
	P        int  `json:"p"`
	D        int  `json:"d"`
	B        int  `json:"b"`
	CB       int  `json:"cb"`
	BPM      int  `json:"bpm"`
	Rounds   int  `json:"rounds"`
	CacheCtx bool `json:"cacheCtx,omitempty"` // parallel machine kept contexts resident
	// Depth is the pipeline window depth the run finished with (1 =
	// synchronous schedule). The Theorem 2/3 op-count predictor ignores
	// it — the operation multiset is depth-invariant by construction —
	// but the overlap model (ModelWallPipelined) prices the stall curve
	// from it. Additive and omitempty, so LedgerVersion is unchanged.
	Depth int `json:"depth,omitempty"`
}

// LocalV returns the number of virtual processors per real processor.
func (m Machine) LocalV() int {
	if m.Par && m.P > 0 {
		return m.V / m.P
	}
	return m.V
}

// predictor memoizes the FIFO operation counts of a machine's message
// schedule. All counts are lazily computed: a 2-round run never prices
// the odd-parity tables.
type predictor struct {
	m    Machine
	used []bool

	// Sequential machine: ops by (round parity, VP).
	seqInbox  [2][]int64
	seqOutbox [2][]int64

	// Parallel machine: region (inbox) ops by local VP; route ops by
	// source VP (the cost of landing one batch: localV slot writes).
	parRegion []int64
	parRoute  []int64
	reqs      []pdm.BlockReq
}

const unpriced = -1

func newPredictor(m Machine) *predictor {
	p := &predictor{m: m, used: make([]bool, m.D)}
	fill := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = unpriced
		}
		return s
	}
	if m.Par {
		p.parRegion = fill(m.LocalV())
		p.parRoute = fill(m.V)
	} else {
		p.seqInbox = [2][]int64{fill(m.V), fill(m.V)}
		p.seqOutbox = [2][]int64{fill(m.V), fill(m.V)}
	}
	return p
}

// fifoOps replays layout's greedy FIFO packing rule over the request
// sequence, counting parallel I/Os without performing them: a cycle
// admits requests until it would revisit a disk, then one op issues.
func (p *predictor) fifoOps(reqs []pdm.BlockReq) int64 {
	used := p.used
	ops := int64(0)
	i := 0
	for i < len(reqs) {
		for j := range used {
			used[j] = false
		}
		for i < len(reqs) && !used[reqs[i].Disk] {
			used[reqs[i].Disk] = true
			i++
		}
		ops++
	}
	return ops
}

// stripedOps is the cost of a striped transfer of n blocks over d disks.
func stripedOps(n, d int) int64 { return int64((n + d - 1) / d) }

// ctxOps is the cost of one context transfer (one direction).
func (p *predictor) ctxOps() int64 { return stripedOps(p.m.CB, p.m.D) }

// seqInboxOps prices VP j's inbox read in the given round.
func (p *predictor) seqInboxOps(round, j int) int64 {
	par := round & 1
	if p.seqInbox[par][j] == unpriced {
		m, err := layout.NewMatrix(p.m.V, p.m.BPM, p.m.D, 0)
		if err != nil {
			return unpriced
		}
		p.reqs = m.AppendInboxReqs(p.reqs[:0], round, j)
		p.seqInbox[par][j] = p.fifoOps(p.reqs)
	}
	return p.seqInbox[par][j]
}

// seqOutboxOps prices VP j's outbox write in the given round.
func (p *predictor) seqOutboxOps(round, j int) int64 {
	par := round & 1
	if p.seqOutbox[par][j] == unpriced {
		m, err := layout.NewMatrix(p.m.V, p.m.BPM, p.m.D, 0)
		if err != nil {
			return unpriced
		}
		p.reqs = m.AppendOutboxReqs(p.reqs[:0], round, j)
		p.seqOutbox[par][j] = p.fifoOps(p.reqs)
	}
	return p.seqOutbox[par][j]
}

// parRegionOps prices local VP l's inbox read (whole region of the
// rectangular matrix). Both ping-pong rects share one Disk sequence —
// BaseTrack never reaches the Disk field — so parity does not matter.
func (p *predictor) parRegionOps(l int) int64 {
	if p.parRegion[l] == unpriced {
		r, err := layout.NewRect(p.m.V, p.m.LocalV(), p.m.BPM, p.m.D, 0)
		if err != nil {
			return unpriced
		}
		p.reqs = r.AppendRegionReqs(p.reqs[:0], l)
		p.parRegion[l] = p.fifoOps(p.reqs)
	}
	return p.parRegion[l]
}

// parRouteOps prices landing one batch from source VP a: the receiving
// processor writes a's slot in every local region with one FIFO call.
func (p *predictor) parRouteOps(a int) int64 {
	if p.parRoute[a] == unpriced {
		r, err := layout.NewRect(p.m.V, p.m.LocalV(), p.m.BPM, p.m.D, 0)
		if err != nil {
			return unpriced
		}
		p.reqs = p.reqs[:0]
		for dl := 0; dl < p.m.LocalV(); dl++ {
			p.reqs = r.AppendSlotReqs(p.reqs, dl, a)
		}
		p.parRoute[a] = p.fifoOps(p.reqs)
	}
	return p.parRoute[a]
}

// routeTotalOps prices one processor's full route phase in a
// non-terminal round: every processor receives exactly V batches, one
// per virtual processor in the machine, all non-final.
func (p *predictor) routeTotalOps() int64 {
	total := int64(0)
	for a := 0; a < p.m.V; a++ {
		total += p.parRouteOps(a)
	}
	return total
}

// initOps prices the input-distribution phase: one striped context write
// per virtual processor (zero when the parallel machine caches contexts).
func (p *predictor) initOps() int64 {
	if p.m.Par && p.m.CacheCtx {
		return 0
	}
	return int64(p.m.V) * p.ctxOps()
}

// predictRow prices one recorded superstep row, returning its predicted
// context and message parallel I/Os.
func (p *predictor) predictRow(label string, round, vp int) (ctx, msg int64) {
	terminal := round == p.m.Rounds-1
	switch label {
	case "init":
		return p.initOps(), 0
	case "superstep":
		if p.m.Par {
			if !p.m.CacheCtx {
				ctx = 2 * p.ctxOps()
			}
			if round > 0 {
				msg = p.parRegionOps(vp % p.m.LocalV())
			}
			return ctx, msg
		}
		ctx = 2 * p.ctxOps()
		if round > 0 {
			msg = p.seqInboxOps(round, vp)
		}
		if !terminal {
			msg += p.seqOutboxOps(round, vp)
		}
		return ctx, msg
	case "route":
		if terminal {
			return 0, 0
		}
		return 0, p.routeTotalOps()
	}
	return 0, 0
}
