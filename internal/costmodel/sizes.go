package costmodel

import (
	"sync"

	"repro/internal/cgm"
)

// Sizes is what a run held, in items: Ctx[r][j] is virtual processor j's
// context as round r finds it (Ctx[0] is what Init left, Ctx[r+1] what
// round r left behind), Msg[r][src·v+dst] the message src sent dst in
// round r. The engine fills one in while it runs under a Ledger; SizesOf
// takes one from an in-memory run, with no engine and no disk involved.
type Sizes struct {
	Ctx [][]int
	Msg [][]int
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
}

// SizesOf runs prog on the in-memory CGM runtime and returns the sizes it
// held along with the run's result. With Predict this prices an EM-CGM
// run of the program from the program alone — the reference the engine's
// counts are tested against.
func SizesOf[T any](prog cgm.Program[T], v int, inputs [][]T) (*Sizes, *cgm.Result[T], error) {
	tap := &sizeTap[T]{Program: prog}
	res, err := cgm.Run[T](tap, v, inputs)
	if err != nil {
		return nil, nil, err
	}
	return &Sizes{Ctx: tap.ctx, Msg: res.Stats.SizeMatrixPerRound}, res, nil
}

// sizeTap notes len(State) of every virtual processor after Init and
// after each Round; the runtime already keeps the message sizes.
type sizeTap[T any] struct {
	cgm.Program[T]
	mu  sync.Mutex // the runtime runs a round's VPs concurrently
	ctx [][]int
}

func (p *sizeTap[T]) note(r int, vp *cgm.VP[T]) {
	p.mu.Lock()
	for len(p.ctx) <= r {
		p.ctx = append(p.ctx, make([]int, vp.V))
	}
	p.ctx[r][vp.ID] = len(vp.State)
	p.mu.Unlock()
}

func (p *sizeTap[T]) Init(vp *cgm.VP[T], input []T) {
	p.Program.Init(vp, input)
	p.note(0, vp)
}

func (p *sizeTap[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	outbox, done := p.Program.Round(vp, round, inbox)
	p.note(round+1, vp)
	return outbox, done
}
