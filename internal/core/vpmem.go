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
// than it needs (still within the declared bound of v messages of
// MaxMsgItems), so the arenas, which each see only every c-th VP, do not
// each re-grow through a run of slightly larger inboxes. The ring slots'
// images follow the same rule (grow).
//
// The arena also lends the program its scratch (cgm.VP.Scratch): a
// grow-only region handed out front to back, so the borrows of one call
// are disjoint. A borrow the region cannot hold comes from a chunk of its
// own, and the slices already lent stay where they are (a first borrow
// too large for the region instead replaces it by one an eighth larger
// than the borrow); release then replaces region and chunks by one region
// an eighth larger than the superstep's total, the inbox's rule again, so
// a worker settles at the largest scratch one superstep of its VPs asks
// for and then allocates none. Config.M does not charge it: scratch is the
// program's own working memory, which allocated as much before.
//
// Ownership rule: what decode returns and what the arena lends is valid
// until release, i.e. for one compound superstep. The engine copies out
// (keep) the three things that outlive it when they still point here — an
// outbox message queued for the route phase, a context kept resident
// under CacheContexts, and the slice prog.Output returned; everything else
// is consumed (encoded to a word image) before the superstep ends.
type vpMem[T any] struct {
	state   []T   // context items
	msgs    []T   // the v messages of one inbox, back to back
	inbox   [][]T // inbox header handed to Round
	maxRecv int   // the declared bound of an inbox: v messages of MaxMsgItems
	checked bool  // CheckedIO: release zeroes the arena

	lent   []T   // the scratch region, lent from its head
	off    int   // items of lent handed out this superstep
	chunks [][]T // borrows lent could not hold
	total  int   // items lent this superstep, chunks included
	lend   func(n int) []T
}

func newVPMem[T any](v, maxMsg int, checked bool) *vpMem[T] {
	// state starts empty but non-nil: an empty context decodes to an empty
	// slice, as it did when every decode allocated.
	m := &vpMem[T]{state: []T{}, inbox: make([][]T, v), maxRecv: v * maxMsg, checked: checked}
	m.lend = m.scratch // bound once: the VP of every superstep carries it
	return m
}

// scratch lends n zeroed items, cap == len, disjoint from everything else
// lent this superstep.
func (m *vpMem[T]) scratch(n int) []T {
	m.total += n
	if m.off+n > len(m.lent) {
		if m.off > 0 {
			c := make([]T, n)
			m.chunks = append(m.chunks, c)
			return c
		}
		m.lent = make([]T, n+n/8) // nothing is lent from it yet: replace it
	}
	s := m.lent[m.off : m.off+n : m.off+n]
	m.off += n
	clear(s)
	return s
}

// decode deserialises virtual processor state and inbox for one superstep:
// the state out of ctxImg, the words of the context's items (nil when the
// context is resident), and, when counts is non-nil (after round 0), the
// inbox out of the flat image of len(counts) message slots of b-word
// blocks, back to back, of which slot src is live[src] blocks long and
// holds counts[src] items at its head. The counts are the length table's,
// the numbers the reads and live were sized by, so every word decoded was
// transferred. Every slice is handed out with
// cap == len, so a program's append reallocates rather than running into
// its neighbour. recv is the number of items received.
func (m *vpMem[T]) decode(codec wordcodec.Codec[T], ctxImg, flat []pdm.Word, b int, live, counts []int) (state []T, inbox [][]T, recv int) {
	iw := codec.Words()
	if ctxImg != nil {
		n := len(ctxImg) / iw
		if n > cap(m.state) {
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
		m.msgs = make([]T, min(recv+recv/8, m.maxRecv))
	}
	off, at := 0, 0
	for src, n := range counts {
		if n > 0 {
			m.inbox[src] = m.msgs[off : off+n : off+n]
			wordcodec.DecodeInto(codec, m.inbox[src], flat[at:at+n*iw])
			off += n
		}
		at += live[src] * b
	}
	return state, m.inbox, recv
}

// keep returns s, or a copy of it when s points into the arena and would
// be overwritten by the next decode or borrow.
func (m *vpMem[T]) keep(s []T) []T {
	if !m.owns(s) {
		return s
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// owns reports whether s points into memory the arena hands out again
// after release: the decoded state and inbox, the lent region, or a chunk
// lent this superstep.
func (m *vpMem[T]) owns(s []T) bool {
	if within(s, m.state) || within(s, m.msgs) || within(s, m.lent) {
		return true
	}
	for _, c := range m.chunks {
		if within(s, c) {
			return true
		}
	}
	return false
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

// release ends a superstep: the scratch is lent from the head again, out
// of one region that holds all of this superstep's. In checked mode it
// zeroes the arena, chunks included, so a reference the engine failed to
// keep reads zeros at once instead of another virtual processor's data
// some supersteps later.
func (m *vpMem[T]) release() {
	if m.checked {
		clear(m.state[:cap(m.state)])
		clear(m.msgs[:cap(m.msgs)])
		clear(m.inbox)
		clear(m.lent)
		for _, c := range m.chunks {
			clear(c)
		}
	}
	if len(m.chunks) > 0 {
		m.lent = make([]T, m.total+m.total/8)
		clear(m.chunks)
		m.chunks = m.chunks[:0]
	}
	m.off, m.total = 0, 0
}
