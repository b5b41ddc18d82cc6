// Package balance implements Algorithm 1 of the paper — BalancedRouting,
// originally from Bader et al. — which converts an arbitrary h-relation
// into two rounds of balanced communication.
//
// In superstep A, processor i allocates the ℓ-th element of its message to
// processor j to local bin (i+j+ℓ) mod v and sends bin b to processor b.
// In superstep B, each processor regroups what it received by final
// destination and delivers it. Theorem 1 bounds every message of both
// supersteps between h/v − v/2 and h/v + v/2 elements, which is what lets
// the EM-CGM simulation assign fixed-size disk slots to messages
// (Lemma 2: minimum message size Ω(B) whenever N ≥ v²B + v²(v−1)/2).
//
// Items travel untagged. Where element ℓ of msg_{i,j} lands follows from
// i, j, ℓ and the h-relation's size matrix (|msg_{i,j}| for every i, j):
// bin b of source i holds, for each j in turn, the elements ℓ ≡ b−i−j
// (mod v) of msg_{i,j}. The matrix travels beside the messages as
// metadata, as the simulator's length tables do. Wrap lifts any
// cgm.Program[T] to its balanced version over the same T, doubling the
// round count exactly as Lemma 2 states.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package balance

import (
	"sync"

	"repro/internal/cgm"
	"repro/internal/obs"
)

// share is how many of a message's m elements a bin takes when its first
// one is element l0 (0 ≤ l0 < v): elements l0, l0+v, l0+2v, … below m.
func share(m, l0, v int) int {
	if m <= l0 {
		return 0
	}
	return (m - l0 + v - 1) / v
}

// first is the index of the first element of msg_{i,j} in bin b:
// (b−i−j) mod v.
func first(b, i, j, v int) int { return (b + 2*v - i - j) % v }

// alloc returns n items from lend, or made ones when lend is nil.
func alloc[T any](lend func(int) []T, n int) []T {
	if lend == nil {
		return make([]T, n)
	}
	return lend(n)
}

// PhaseA computes processor self's superstep-A bins for its outgoing
// messages msgs (msgs[j] = message to processor j; len(msgs) must be v or
// msgs may be nil). bins[b] is the content to send to intermediate
// processor b, allocated round-robin: element ℓ of msgs[j] goes to bin
// (self+j+ℓ) mod v, and within a bin the elements stand by j, then by ℓ.
// The bins are carved out of one borrow from lend (nil: make).
func PhaseA[T any](self, v int, msgs [][]T, lend func(int) []T) [][]T {
	bins := make([][]T, v)
	if msgs == nil {
		return bins
	}
	total := 0
	for _, msg := range msgs {
		total += len(msg)
	}
	buf := alloc(lend, total)
	for b := range bins {
		n := 0
		for j, msg := range msgs {
			n += share(len(msg), first(b, self, j, v), v)
		}
		bins[b], buf = buf[:0:n], buf[n:]
	}
	for j, msg := range msgs {
		b := (self + j) % v
		for _, x := range msg {
			bins[b] = append(bins[b], x)
			if b++; b == v {
				b = 0
			}
		}
	}
	return bins
}

// PhaseB regroups the bins intermediate processor self received in
// superstep A (received[i] = bin self of source i) by final destination:
// out[j] holds, source by source, the elements of msg_{i,j} that crossed
// self. sizes is the round's size matrix, sizes[i·v+j] = |msg_{i,j}|, from
// which each bin's run for j is share(|msg_{i,j}|, (self−i−j) mod v) items
// long. The messages are carved out of one borrow from lend (nil: make).
func PhaseB[T any](self, v int, sizes []int, received [][]T, lend func(int) []T) [][]T {
	out, size, total := make([][]T, v), make([]int, v), 0
	for i := range received {
		for j := range size {
			n := share(sizes[i*v+j], first(self, i, j, v), v)
			size[j] += n
			total += n
		}
	}
	buf := alloc(lend, total)
	for j, n := range size {
		out[j], buf = buf[:0:n], buf[n:]
	}
	for i, bin := range received {
		for j := range out {
			n := share(sizes[i*v+j], first(self, i, j, v), v)
			out[j], bin = append(out[j], bin[:n]...), bin[n:]
		}
	}
	return out
}

// Deliver reconstructs processor self's original inbox from the messages
// it received in superstep B (received[b] from intermediate b): inbox[i]
// is msg_{i,self}, elements in their original order. Intermediate b
// forwards, source by source, elements l0, l0+v, l0+2v, … of msg_{i,self}
// with l0 = (b−i−self) mod v, and sizes (as for PhaseB) says how many. The
// inbox is carved out of one borrow from lend (nil: make); an empty
// message stays nil.
func Deliver[T any](self, v int, sizes []int, received [][]T, lend func(int) []T) [][]T {
	inbox, total := make([][]T, v), 0
	for i := range inbox {
		total += sizes[i*v+self]
	}
	buf := alloc(lend, total)
	for i := range inbox {
		if n := sizes[i*v+self]; n > 0 {
			inbox[i], buf = buf[:n:n], buf[n:]
		}
	}
	for b, msg := range received {
		for i, dst := range inbox {
			l0 := first(b, i, self, v)
			n := share(len(dst), l0, v)
			for t, x := range msg[:n] {
				dst[l0+t*v] = x
			}
			msg = msg[n:]
		}
	}
	return inbox
}

// program lifts an inner cgm.Program[T] to a balanced cgm.Program[T] in
// which every inner communication round becomes two balanced rounds.
//
// Wrapped round 2r delivers the reassembled inbox to inner round r, writes
// its own row of inner round r's size matrix and scatters its outbox per
// PhaseA; wrapped round 2r+1 regroups per PhaseB. Round 2r+2 reads round
// r's matrix while it writes round r+1's, so the matrices alternate by
// r's parity. Contexts are the inner program's own: vp is forwarded as it
// is, and a phase-B round leaves State as it found it.
type program[T any] struct {
	inner cgm.Program[T]
	rec   *obs.Recorder
	once  sync.Once
	sizes [2][]int // inner round r's size matrix is sizes[r%2]
}

// Wrap returns the balanced version of p: identical outputs, 2λ rounds,
// message sizes within Theorem 1's bounds. The wrapped value holds the
// size matrices its VPs share, made for the v of its first run, so it
// serves one v and one run at a time.
func Wrap[T any](p cgm.Program[T]) cgm.Program[T] { return &program[T]{inner: p} }

// WrapObserved is Wrap with observability: every message the balanced
// program produces is folded into rec's per-round size statistics, which
// the obs.Recorder.MsgTable report compares against the provisioned slot.
// rec may be nil, in which case this is exactly Wrap.
func WrapObserved[T any](p cgm.Program[T], rec *obs.Recorder) cgm.Program[T] {
	return &program[T]{inner: p, rec: rec}
}

// WrapInputs returns ins: a wrapped program takes the inner program's
// inputs as they are.
func WrapInputs[T any](ins [][]T) [][]T { return ins }

func (p *program[T]) Init(vp *cgm.VP[T], input []T) {
	p.once.Do(func() { p.sizes = [2][]int{make([]int, vp.V*vp.V), make([]int, vp.V*vp.V)} })
	if len(p.sizes[0]) != vp.V*vp.V {
		panic("balance: a wrapped program serves one v")
	}
	p.inner.Init(vp, input)
}

func (p *program[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	r := round / 2
	if round%2 == 1 {
		// Superstep B: regroup by final destination; state untouched.
		out := PhaseB(vp.ID, vp.V, p.sizes[r%2], inbox, vp.Scratch)
		p.observe(round, out)
		return out, false
	}
	// Superstep A: deliver the previous inner round's messages.
	if round > 0 {
		inbox = Deliver(vp.ID, vp.V, p.sizes[(r+1)%2], inbox, vp.Scratch)
	}
	out, done := p.inner.Round(vp, r, inbox)
	if done {
		return nil, true
	}
	if out != nil && len(out) != vp.V {
		return out, false // malformed: the runtime rejects it
	}
	row := p.sizes[r%2][vp.ID*vp.V : (vp.ID+1)*vp.V]
	clear(row) // a nil outbox sends nothing
	for j, msg := range out {
		row[j] = len(msg)
	}
	bins := PhaseA(vp.ID, vp.V, out, vp.Scratch)
	p.observe(round, bins)
	return bins, false
}

// observe records every produced message's size (items) under the round.
func (p *program[T]) observe(round int, out [][]T) {
	if p.rec == nil {
		return
	}
	for _, m := range out {
		p.rec.MsgSize(round, len(m))
	}
}

func (p *program[T]) Output(vp *cgm.VP[T]) []T { return p.inner.Output(vp) }

// MaxContextItems forwards the inner program's context bound when it
// declares one.
func (p *program[T]) MaxContextItems(n, v int) int {
	if cs, ok := p.inner.(cgm.ContextSizer); ok {
		return cs.MaxContextItems(n, v)
	}
	return 0
}
