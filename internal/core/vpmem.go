package core

import (
	"unsafe"

	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// vpMem is one compute worker's decode arena: the typed memory that holds
// the context and the inbox of the virtual processor the worker computes,
// and that every VP handed to the worker is decoded into in turn. A real
// processor has c of them, one per worker (Config.M charges the c − 1
// beyond the first one working set each). It only ever grows — to the
// largest context and the largest inbox total actually seen, read from the
// length tables, never to the MaxCtxItems/MaxMsgItems bounds the disk
// slots are sized by. An inbox that outgrows it grows it by an eighth more
// than it needs (still within the slots' bound), so the arenas, which each
// see only every c-th VP, do not each re-grow through a run of slightly
// larger inboxes.
//
// Ownership rule: what decode returns is valid until the next decode on
// the same arena, i.e. for one compound superstep. The engine copies out
// (keep) the three things that outlive it when they still point here — an
// outbox message queued for the route phase, a context kept resident
// under CacheContexts, and the slice prog.Output returned; everything else
// is consumed (encoded to a word image) before the superstep ends.
type vpMem[T any] struct {
	state   []T   // context items
	msgs    []T   // the v messages of one inbox, back to back
	inbox   [][]T // inbox header handed to Round
	checked bool  // CheckedIO: release zeroes the arena
}

func newVPMem[T any](v int, checked bool) *vpMem[T] {
	// state starts empty but non-nil: an empty context decodes to an empty
	// slice, as it did when every decode allocated.
	return &vpMem[T]{state: []T{}, inbox: make([][]T, v), checked: checked}
}

// decode deserialises virtual processor state and inbox for one superstep:
// the state out of ctxImg, the words of the context's items (nil when the
// context is resident), and, when counts is non-nil (after round 0), the
// inbox out of the flat image of len(counts) equal message slots, of which
// slot src holds counts[src] items at its head. The counts are the length
// table's, the numbers the reads were sized by, so every word decoded was
// transferred. Every slice is handed out with cap == len, so a program's
// append reallocates rather than running into its neighbour. recv is the
// number of items received.
// emcgm:hotpath
func (m *vpMem[T]) decode(codec wordcodec.Codec[T], ctxImg, flat []pdm.Word, counts []int) (state []T, inbox [][]T, recv int) {
	iw := codec.Words()
	if ctxImg != nil {
		n := len(ctxImg) / iw
		if n > cap(m.state) {
			// emcgm:coldpath growth to the largest context seen; steady
			// state decodes in place
			m.state = make([]T, n)
		}
		state = m.state[:n:n]
		wordcodec.DecodeInto(codec, state, ctxImg)
	}
	clear(m.inbox)
	if counts == nil {
		return state, m.inbox, 0
	}
	for _, n := range counts {
		recv += n
	}
	if recv > cap(m.msgs) {
		// emcgm:coldpath growth to the largest inbox seen, and an eighth
		// more within the slot images' bound
		m.msgs = make([]T, min(recv+recv/8, len(flat)/iw))
	}
	sw, off := len(flat)/len(counts), 0
	for src, n := range counts {
		if n == 0 {
			continue
		}
		m.inbox[src] = m.msgs[off : off+n : off+n]
		wordcodec.DecodeInto(codec, m.inbox[src], flat[src*sw:src*sw+n*iw])
		off += n
	}
	return state, m.inbox, recv
}

// keep returns s, or a copy of it when s points into the arena and would
// be overwritten by the next decode.
func (m *vpMem[T]) keep(s []T) []T {
	if !within(s, m.state) && !within(s, m.msgs) {
		return s
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// within reports whether s's backing array starts inside arena's. The
// addresses are only compared, never converted back.
func within[T any](s, arena []T) bool {
	if cap(s) == 0 || cap(arena) == 0 {
		return false
	}
	var item T
	p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(arena)))
	return p >= lo && p-lo < uintptr(cap(arena))*unsafe.Sizeof(item)
}

// release ends a superstep. In checked mode it zeroes the arena, so a
// reference the engine failed to keep reads zeros at once instead of
// another virtual processor's data some supersteps later.
func (m *vpMem[T]) release() {
	if !m.checked {
		return
	}
	clear(m.state[:cap(m.state)])
	clear(m.msgs[:cap(m.msgs)])
	clear(m.inbox)
}
