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
// The package balances whole items rather than words; each item travels
// with a (src, dst, seq) tag so the final recipient can reassemble every
// original message in order. Wrap lifts any cgm.Program to its balanced
// version, doubling the round count exactly as Lemma 2 states.
//
// The package is part of the determinism contract (DESIGN.md §11):
// identical inputs must yield bit-identical I/O schedules and op counts.
package balance

import (
	"sort"

	"repro/internal/cgm"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// Item is a routed element: the original value plus its routing tag.
type Item[T any] struct {
	Src, Dst int // original sender and final destination
	Seq      int // position within the original message msg_{Src,Dst}
	Val      T
}

// PhaseA computes processor self's superstep-A bins for its outgoing
// messages msgs (msgs[j] = message to processor j; len(msgs) must be v or
// msgs may be nil). bins[b] is the tagged content to send to intermediate
// processor b, allocated round-robin: element ℓ of msgs[j] goes to bin
// (self+j+ℓ) mod v.
func PhaseA[T any](self, v int, msgs [][]T) [][]Item[T] {
	bins := make([][]Item[T], v)
	if msgs == nil {
		return bins
	}
	for j, msg := range msgs {
		for l, val := range msg {
			b := (self + j + l) % v
			bins[b] = append(bins[b], Item[T]{Src: self, Dst: j, Seq: l, Val: val})
		}
	}
	return bins
}

// PhaseB regroups the items a processor received in superstep A by final
// destination: out[d] collects every item with Dst == d.
func PhaseB[T any](v int, received [][]Item[T]) [][]Item[T] {
	out := make([][]Item[T], v)
	for _, bin := range received {
		for _, it := range bin {
			out[it.Dst] = append(out[it.Dst], it)
		}
	}
	return out
}

// Deliver reconstructs the original inbox from the items received in
// superstep B: inbox[s] is the message originally sent by processor s,
// with elements restored to their original order.
func Deliver[T any](v int, received [][]Item[T]) [][]T {
	bySrc := make([][]Item[T], v)
	for _, msg := range received {
		for _, it := range msg {
			bySrc[it.Src] = append(bySrc[it.Src], it)
		}
	}
	inbox := make([][]T, v)
	for s, items := range bySrc {
		sort.Slice(items, func(a, b int) bool { return items[a].Seq < items[b].Seq })
		vals := make([]T, len(items))
		for i, it := range items {
			vals[i] = it.Val
		}
		inbox[s] = vals
	}
	return inbox
}

// Codec wraps an item codec to encode routed items; the tag costs two
// extra words (src/dst packed in one, seq in the other).
type Codec[T any] struct{ Inner wordcodec.Codec[T] }

// Words returns the inner width plus two tag words.
func (c Codec[T]) Words() int { return c.Inner.Words() + 2 }

// Encode stores the tag then the value.
func (c Codec[T]) Encode(dst []pdm.Word, it Item[T]) {
	dst[0] = pdm.Word(uint64(uint32(it.Src))<<32 | uint64(uint32(it.Dst)))
	dst[1] = pdm.Word(it.Seq)
	c.Inner.Encode(dst[2:], it.Val)
}

// Decode loads the tag then the value.
func (c Codec[T]) Decode(src []pdm.Word) Item[T] {
	return Item[T]{
		Src: int(uint32(src[0] >> 32)),
		Dst: int(uint32(src[0])),
		Seq: int(src[1]),
		Val: c.Inner.Decode(src[2:]),
	}
}

// EncodeSliceInto is the bulk fast path (wordcodec.BulkCodec): one loop
// with the widths hoisted, so balanced runs skip per-item dispatch too.
func (c Codec[T]) EncodeSliceInto(dst []pdm.Word, items []Item[T]) {
	w := c.Inner.Words() + 2
	for i := range items {
		base := i * w
		dst[base] = pdm.Word(uint64(uint32(items[i].Src))<<32 | uint64(uint32(items[i].Dst)))
		dst[base+1] = pdm.Word(items[i].Seq)
		c.Inner.Encode(dst[base+2:base+w], items[i].Val)
	}
}

// DecodeSliceInto is the decoding analogue of EncodeSliceInto.
func (c Codec[T]) DecodeSliceInto(dst []Item[T], src []pdm.Word) {
	w := c.Inner.Words() + 2
	for i := range dst {
		base := i * w
		dst[i] = Item[T]{
			Src: int(uint32(src[base] >> 32)),
			Dst: int(uint32(src[base])),
			Seq: int(src[base+1]),
			Val: c.Inner.Decode(src[base+2 : base+w]),
		}
	}
}

var _ wordcodec.BulkCodec[Item[int64]] = Codec[int64]{Inner: wordcodec.I64{}}

// program lifts an inner cgm.Program[T] to a balanced cgm.Program[Item[T]]
// in which every inner communication round becomes two balanced rounds.
//
// Wrapped round 2r delivers the reassembled inbox to inner round r and
// scatters its outbox per PhaseA; wrapped round 2r+1 regroups per PhaseB.
type program[T any] struct {
	inner cgm.Program[T]
	rec   *obs.Recorder
}

// Wrap returns the balanced version of p: identical outputs, 2λ rounds,
// message sizes within Theorem 1's bounds.
func Wrap[T any](p cgm.Program[T]) cgm.Program[Item[T]] { return program[T]{inner: p} }

// WrapObserved is Wrap with observability: every message the balanced
// program produces is folded into rec's per-round size statistics, which
// the obs.Recorder.MsgTable report compares against the Theorem 1 slot
// bound. rec may be nil, in which case this is exactly Wrap.
func WrapObserved[T any](p cgm.Program[T], rec *obs.Recorder) cgm.Program[Item[T]] {
	return program[T]{inner: p, rec: rec}
}

// WrapInputs tags raw input partitions for a wrapped program.
func WrapInputs[T any](ins [][]T) [][]Item[T] {
	out := make([][]Item[T], len(ins))
	for i, in := range ins {
		w := make([]Item[T], len(in))
		for k, v := range in {
			w[k] = Item[T]{Val: v}
		}
		out[i] = w
	}
	return out
}

// UnwrapOutputs strips tags from a wrapped program's outputs.
func UnwrapOutputs[T any](outs [][]Item[T]) [][]T {
	res := make([][]T, len(outs))
	for i, o := range outs {
		vals := make([]T, len(o))
		for k, it := range o {
			vals[k] = it.Val
		}
		res[i] = vals
	}
	return res
}

func unwrapState[T any](st []Item[T]) []T {
	vals := make([]T, len(st))
	for i, it := range st {
		vals[i] = it.Val
	}
	return vals
}

func wrapState[T any](vals []T) []Item[T] {
	st := make([]Item[T], len(vals))
	for i, v := range vals {
		st[i] = Item[T]{Val: v}
	}
	return st
}

func (p program[T]) Init(vp *cgm.VP[Item[T]], input []Item[T]) {
	iv := &cgm.VP[T]{ID: vp.ID, V: vp.V}
	p.inner.Init(iv, unwrapState(input))
	vp.State = wrapState(iv.State)
}

func (p program[T]) Round(vp *cgm.VP[Item[T]], round int, inbox [][]Item[T]) ([][]Item[T], bool) {
	if round%2 == 1 {
		// Superstep B: regroup by final destination; state untouched.
		out := PhaseB(vp.V, inbox)
		p.observe(round, out)
		return out, false
	}
	// Superstep A: deliver previous round's items to the inner program.
	var innerInbox [][]T
	if round == 0 {
		innerInbox = make([][]T, vp.V)
	} else {
		innerInbox = Deliver(vp.V, inbox)
	}
	iv := &cgm.VP[T]{ID: vp.ID, V: vp.V, State: unwrapState(vp.State)}
	out, done := p.inner.Round(iv, round/2, innerInbox)
	vp.State = wrapState(iv.State)
	if done {
		return nil, true
	}
	bins := PhaseA(vp.ID, vp.V, out)
	p.observe(round, bins)
	return bins, false
}

// observe records every produced message's size (items) under the round.
func (p program[T]) observe(round int, out [][]Item[T]) {
	if p.rec == nil {
		return
	}
	for _, m := range out {
		p.rec.MsgSize(round, len(m))
	}
}

func (p program[T]) Output(vp *cgm.VP[Item[T]]) []Item[T] {
	iv := &cgm.VP[T]{ID: vp.ID, V: vp.V, State: unwrapState(vp.State)}
	return wrapState(p.inner.Output(iv))
}

// MaxContextItems forwards the inner program's context bound when it
// declares one (wrapped items hold one inner item each).
func (p program[T]) MaxContextItems(n, v int) int {
	if cs, ok := p.inner.(cgm.ContextSizer); ok {
		return cs.MaxContextItems(n, v)
	}
	return 0
}
