// Package cgm implements the Coarse Grained Multicomputer (CGM) model:
// v processors with O(N/v) local memory each, computing in an alternating
// sequence of local-computation rounds and communication rounds, where
// each communication round is a single h-relation with h = Θ(N/v).
//
// The package defines the Program interface in which all of this
// repository's parallel algorithms are written, and an in-memory runtime
// that executes a Program with one goroutine per virtual processor and
// barrier-synchronised supersteps. The same Program, unchanged, runs under
// the EM-CGM disk simulation of package core — that substitutability *is*
// the paper's contribution.
package cgm

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
)

// VP is the per-virtual-processor view a Program operates on.
//
// State is the processor's context: ALL data a program keeps across rounds
// must live in State, because the EM-CGM simulation swaps exactly State to
// disk between compound supersteps. Anything else is lost.
type VP[T any] struct {
	// ID is this virtual processor's index, 0 ≤ ID < V.
	ID int
	// V is the number of virtual processors.
	V int
	// State is the persistent context (μ = max items held here).
	State []T

	lend func(n int) []T // Scratch's lender; nil: make
}

// NewVP returns the view of virtual processor id of v holding state, whose
// Scratch borrows from lend (nil: allocates). A simulator that owns memory
// with a superstep's lifetime lends it through here.
func NewVP[T any](id, v int, state []T, lend func(n int) []T) *VP[T] {
	return &VP[T]{ID: id, V: v, State: state, lend: lend}
}

// Scratch returns n zeroed items for the program to use during the current
// Init, Round or Output call: working buffers, and the State, messages or
// output it hands back. Several borrows in one call never overlap. Like
// the views in the Program ownership rule, they may be reused once the
// call returns, and the runtime copies out whatever the program hands back
// that still points into them. The in-memory runtime allocates them.
func (vp *VP[T]) Scratch(n int) []T {
	if vp.lend == nil {
		return make([]T, n)
	}
	return vp.lend(n)
}

// Program is a CGM algorithm over items of type T.
//
// The runtime calls Init once per VP with the VP's input partition, then
// repeatedly Round with the messages received from the previous round's
// h-relation (inbox[s] = message from VP s; empty in round 0). Round
// returns the outgoing messages (outbox[d] = message to VP d; nil outbox
// means no communication) and whether the algorithm has finished; all VPs
// must report done in the same round. Output extracts each VP's share of
// the result.
//
// Programs must be deterministic and must not retain references to inbox
// slices across rounds (store copies in State instead): under the EM
// simulation those buffers are recycled disk blocks.
//
// Ownership: under the EM simulation vp.State (as handed to Round) and
// every inbox[s] are views of the simulator's memory — the context and
// inbox one of a real processor's c compute workers holds, in a decode
// arena of its own (c virtual processors of a real processor compute at
// once) — valid for the duration of the call and reused for the next
// virtual processor that worker computes. Each has cap == len, so
// append allocates memory of the program's own. Whatever the program hands
// back — outbox messages, the State it leaves in vp, the slice Output
// returns — may be its own memory or may still be (a re-slice of) those
// views or of what vp.Scratch lent in the same call, which the same
// worker's memory lends; the driver copies out anything that still points
// there before reusing it. Nothing reachable only through a field of the
// Program value survives, and the views must not be written after the
// call.
//
// Init must leave vp.State sharing no memory with input: input is the
// caller's, and round 0 runs on the State Init left — under the EM
// simulation as on the in-memory runtime — so a State that aliased input
// would let Round write into the caller's data (InitCopies checks this).
// Init and Round are called for different VPs from different goroutines.
type Program[T any] interface {
	Init(vp *VP[T], input []T)
	Round(vp *VP[T], round int, inbox [][]T) (outbox [][]T, done bool)
	Output(vp *VP[T]) []T
}

// InitCopies holds p to the Init clause of the Program contract on one
// partition: it runs Init on virtual processor 0 of v, overwrites every
// item of the State it left — up to its capacity, where an append would
// land — with T's zero value, and returns an error if input is no longer
// what it was. input should hold no zero-valued item, or an overwrite
// cannot show.
func InitCopies[T any](p Program[T], v int, input []T) error {
	before := append([]T(nil), input...)
	vp := &VP[T]{ID: 0, V: v}
	p.Init(vp, input)
	clear(vp.State[:cap(vp.State)])
	if !reflect.DeepEqual(input, before) {
		return fmt.Errorf("cgm: %T.Init left State sharing memory with its input (or changed the input)", p)
	}
	return nil
}

// ContextSizer is an optional Program extension declaring the maximum
// context size (in items) any VP will use for a problem of n items on v
// processors. The EM-CGM machines use it to reserve disk space for
// contexts deterministically, as the paper assumes ("since we know the
// size of the contexts ... we can distribute them deterministically").
type ContextSizer interface {
	MaxContextItems(n, v int) int
}

// Stats records the CGM cost measures of a run.
type Stats struct {
	V      int // virtual processors
	Rounds int // communication rounds λ (supersteps executed)
	// TotalVolume is the total number of items communicated over all
	// rounds and processors.
	TotalVolume int64
	// MaxH is the largest h-relation: max over rounds of the maximum
	// items sent or received by any processor in that round.
	MaxH int
	// HPerRound records each round's h value.
	HPerRound []int
	// MaxContext is the largest context (items) observed at any round
	// boundary — the measured μ.
	MaxContext int
	// MaxMsg is the largest single message (items) sent in any round.
	MaxMsg int
	// MinMsg is the smallest nonzero message sent in any round (0 if no
	// messages were sent at all).
	MinMsg int
	// SizeMatrixPerRound[r][src*V+dst] is the size (items) of the message
	// src→dst in round r — the message sizes costmodel.SizesOf hands the
	// I/O predictor.
	SizeMatrixPerRound [][]int
}

// Result is the outcome of running a Program.
type Result[T any] struct {
	// Outputs[i] is VP i's output partition.
	Outputs [][]T
	Stats   Stats
}

// Output concatenates the per-VP outputs in VP order.
func (r *Result[T]) Output() []T {
	var n int
	for _, o := range r.Outputs {
		n += len(o)
	}
	out := make([]T, 0, n)
	for _, o := range r.Outputs {
		out = append(out, o...)
	}
	return out
}

// Run executes program p on v virtual processors over the given input
// partitions (len(inputs) must equal v). Each round executes the VPs
// concurrently, up to GOMAXPROCS at a time, then performs the h-relation.
// A VP panic is recovered and returned as an error naming the VP.
func Run[T any](p Program[T], v int, inputs [][]T) (*Result[T], error) {
	if v < 1 {
		return nil, fmt.Errorf("cgm: v = %d, want ≥ 1", v)
	}
	if len(inputs) != v {
		return nil, fmt.Errorf("cgm: %d input partitions for v = %d processors", len(inputs), v)
	}

	vps := make([]*VP[T], v)
	for i := range vps {
		vps[i] = &VP[T]{ID: i, V: v}
	}
	if err := ForEachVP(v, func(i int) error {
		p.Init(vps[i], inputs[i])
		return nil
	}); err != nil {
		return nil, err
	}

	stats := Stats{V: v}
	observeContexts(&stats, vps)

	inboxes := make([][][]T, v)
	for i := range inboxes {
		inboxes[i] = make([][]T, v)
	}
	outboxes := make([][][]T, v)
	dones := make([]bool, v)

	const maxRounds = 1 << 20 // guard against non-terminating programs
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("cgm: program exceeded %d rounds without finishing", maxRounds)
		}
		if err := ForEachVP(v, func(i int) error {
			out, done := p.Round(vps[i], round, inboxes[i])
			if out != nil && len(out) != v {
				return fmt.Errorf("cgm: vp %d round %d returned outbox of length %d, want %d or nil",
					i, round, len(out), v)
			}
			outboxes[i] = out
			dones[i] = done
			return nil
		}); err != nil {
			return nil, err
		}

		done := dones[0]
		for i, d := range dones {
			if d != done {
				return nil, fmt.Errorf("cgm: vp %d disagreed on termination at round %d", i, round)
			}
		}

		stats.Rounds = round + 1
		observeRound(&stats, outboxes)
		observeContexts(&stats, vps)

		if done {
			break
		}

		// The h-relation: inbox[d][s] = outbox[s][d].
		for d := 0; d < v; d++ {
			for s := 0; s < v; s++ {
				if outboxes[s] == nil {
					inboxes[d][s] = nil
				} else {
					inboxes[d][s] = outboxes[s][d]
				}
			}
		}
	}

	res := &Result[T]{Outputs: make([][]T, v), Stats: stats}
	if err := ForEachVP(v, func(i int) error {
		res.Outputs[i] = p.Output(vps[i])
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// ForEachVP runs f(i) for i in [0,v) concurrently, on up to GOMAXPROCS
// goroutines, converting panics into errors. It is the per-VP runner of
// Run and of the wrappers that build and project per-VP partitions.
func ForEachVP(v int, f func(i int) error) error {
	par := min(runtime.GOMAXPROCS(0), v)
	errs := make([]error, v)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				func() {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = fmt.Errorf("cgm: vp %d panicked: %v", i, r)
						}
					}()
					errs[i] = f(i)
				}()
			}
		}()
	}
	for i := 0; i < v; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observeContexts records the largest context across VPs.
func observeContexts[T any](s *Stats, vps []*VP[T]) {
	for _, vp := range vps {
		if len(vp.State) > s.MaxContext {
			s.MaxContext = len(vp.State)
		}
	}
}

// observeRound folds one round's outboxes into the statistics.
func observeRound[T any](s *Stats, outboxes [][][]T) {
	v := len(outboxes)
	recv := make([]int, v)
	matrix := make([]int, v*v)
	h := 0
	for src, out := range outboxes {
		if out == nil {
			continue
		}
		sent := 0
		for dst, msg := range out {
			n := len(msg)
			matrix[src*v+dst] = n
			sent += n
			recv[dst] += n
			s.TotalVolume += int64(n)
			if n > s.MaxMsg {
				s.MaxMsg = n
			}
			if n > 0 && (s.MinMsg == 0 || n < s.MinMsg) {
				s.MinMsg = n
			}
		}
		if sent > h {
			h = sent
		}
	}
	s.SizeMatrixPerRound = append(s.SizeMatrixPerRound, matrix)
	for _, r := range recv {
		if r > h {
			h = r
		}
	}
	s.HPerRound = append(s.HPerRound, h)
	if h > s.MaxH {
		s.MaxH = h
	}
}
