package costmodel

import (
	"slices"
	"sync"

	"repro/internal/cgm"
	"repro/internal/wordcodec"
)

// Sizes is what a run held, in items: Ctx[r][j] is virtual processor j's
// context as round r finds it (Ctx[0] is what Init left, Ctx[r+1] what
// round r left behind), Msg[r][src·v+dst] the message src sent dst in
// round r. Same[r][j] says that round r left j's context encoded word for
// word as it found it, so that no copy of it needs replacing; Same[0] is
// never consulted, because what round 0 found was in memory and whatever
// it leaves is the first copy. The engine fills one in while it runs
// under a Ledger; SizesOf takes one from an
// in-memory run, with no engine and no disk involved.
type Sizes struct {
	Ctx  [][]int
	Msg  [][]int
	Same [][]bool
}

// NewSizes returns the sizes of a machine of v virtual processors with
// the row of Init's contexts in place.
func NewSizes(v int) *Sizes {
	return &Sizes{Ctx: [][]int{make([]int, v)}}
}

// AddRound appends the rows the next round writes into: the contexts it
// leaves and the messages it sends. A nil *Sizes ignores the call,
// mirroring the nil-Recorder discipline.
func (s *Sizes) AddRound() {
	if s == nil {
		return
	}
	v := len(s.Ctx[0])
	s.Ctx = append(s.Ctx, make([]int, v))
	s.Msg = append(s.Msg, make([]int, v*v))
	s.Same = append(s.Same, make([]bool, v))
}

// SizesOf runs prog on the in-memory CGM runtime and returns the sizes it
// held, with the contexts compared as codec encodes them, along with the
// run's result. With Predict this prices an EM-CGM run of the program from
// the program alone — the reference the engine's counts are tested
// against.
func SizesOf[T any](prog cgm.Program[T], codec wordcodec.Codec[T], v int, inputs [][]T) (*Sizes, *cgm.Result[T], error) {
	tap := &sizeTap[T]{Program: prog, codec: codec}
	res, err := cgm.Run[T](tap, v, inputs)
	if err != nil {
		return nil, nil, err
	}
	return &Sizes{Ctx: tap.ctx, Msg: res.Stats.SizeMatrixPerRound, Same: tap.same}, res, nil
}

// sizeTap notes len(State) of every virtual processor after Init and
// after each Round, and whether the Round changed State's encoding; the
// runtime already keeps the message sizes.
type sizeTap[T any] struct {
	cgm.Program[T]
	codec wordcodec.Codec[T]
	mu    sync.Mutex // the runtime runs a round's VPs concurrently
	ctx   [][]int
	same  [][]bool
}

// row returns row r of a table of one entry per virtual processor,
// growing the table to hold it.
func row[E any](table *[][]E, r, v int) []E {
	for len(*table) <= r {
		*table = append(*table, make([]E, v))
	}
	return (*table)[r]
}

func (p *sizeTap[T]) Init(vp *cgm.VP[T], input []T) {
	p.Program.Init(vp, input)
	p.mu.Lock()
	row(&p.ctx, 0, vp.V)[vp.ID] = len(vp.State)
	p.mu.Unlock()
}

func (p *sizeTap[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	before := wordcodec.EncodeSlice(p.codec, nil, vp.State)
	outbox, done := p.Program.Round(vp, round, inbox)
	same := slices.Equal(before, wordcodec.EncodeSlice(p.codec, nil, vp.State))
	p.mu.Lock()
	row(&p.ctx, round+1, vp.V)[vp.ID] = len(vp.State)
	row(&p.same, round, vp.V)[vp.ID] = same
	p.mu.Unlock()
	return outbox, done
}
