// Package rec defines the universal fixed-size record used by the graph
// and geometry CGM programs, and Exec, a phase-composition runner.
//
// The paper's higher-level algorithms (Figure 5, Groups B and C) are
// compositions of communication phases — route, rank, scan, query — each
// of which is its own CGM program. Giving them all one record type (a tag
// plus four integer and two float fields) keeps the EM machinery uniform:
// one codec, one message-slot geometry, one context layout.
package rec

import (
	"cmp"
	"math"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
)

// R is the universal record: Tag discriminates record kinds within a
// program; A–D are integer payloads (ids, pointers, ranks); X and Y are
// float payloads (coordinates).
type R struct {
	Tag        int64
	A, B, C, D int64
	X, Y       float64
}

// Compare orders records by X, then Y, then A, as cmp.Compare orders
// each. It is the order the geometry programs sort by: they load the key
// into X (and Y) and a unique id into A, which makes it total, so a sort
// under it has one output.
func Compare(a, b R) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.A, b.A)
}

// Codec encodes R in seven words.
type Codec struct{}

// Words returns 7.
func (Codec) Words() int { return 7 }

// Encode stores all fields.
func (Codec) Encode(dst []pdm.Word, r R) {
	dst[0] = pdm.Word(r.Tag)
	dst[1] = pdm.Word(r.A)
	dst[2] = pdm.Word(r.B)
	dst[3] = pdm.Word(r.C)
	dst[4] = pdm.Word(r.D)
	dst[5] = math.Float64bits(r.X)
	dst[6] = math.Float64bits(r.Y)
}

// Decode loads all fields.
func (Codec) Decode(src []pdm.Word) R {
	return R{
		Tag: int64(src[0]),
		A:   int64(src[1]), B: int64(src[2]), C: int64(src[3]), D: int64(src[4]),
		X: math.Float64frombits(src[5]), Y: math.Float64frombits(src[6]),
	}
}

// Exec runs a sequence of CGM programs over R records — in memory, or
// under the EM-CGM simulation — and accumulates the cost accounting
// across phases. The paper's composite algorithms (Euler tour → list
// ranking → scan, spanning tree → low/high → auxiliary components, …)
// execute each phase as one machine run; total I/O is the sum.
type Exec struct {
	// Config is the machine every EM phase runs on; in memory only V is
	// read. A zero P or D means 1, a zero B 64, and a zero MaxMsgItems a
	// bound derived from each phase's input (see Run). Phases share the
	// Recorder, so a composite algorithm's trace shows its phase
	// boundaries as consecutive spans, and the Ledger gets one entry per
	// phase; with DiskDir set, sequential phases reuse the same disk
	// files.
	core.Config
	EM bool // run phases under the EM-CGM simulation

	// Accumulated accounting. MaxTracks is the largest Result.MaxTracks
	// of the phases, not their sum: each phase's disks are its own (or,
	// with DiskDir, the same files rewritten), so the footprint of the
	// composite is its largest phase's.
	Rounds     int
	IO         pdm.IOStats
	CtxOps     int64
	MsgOps     int64
	CommItems  int64
	Supersteps int
	Syscalls   int64
	MaxTracks  int
}

// NewMem returns an in-memory executor with v virtual processors.
func NewMem(v int) *Exec { return &Exec{Config: core.Config{V: v}} }

// NewEM returns an EM-CGM executor.
func NewEM(v, p, d, b int) *Exec {
	return &Exec{Config: core.Config{V: v, P: p, D: d, B: b}, EM: true}
}

// Run executes one phase and folds its costs into the executor.
func (e *Exec) Run(prog cgm.Program[R], inputs [][]R) ([][]R, error) {
	if !e.EM {
		res, err := cgm.Run[R](prog, e.V, inputs)
		if err != nil {
			return nil, err
		}
		e.Rounds += res.Stats.Rounds
		return res.Outputs, nil
	}
	cfg := e.Config
	if cfg.P == 0 {
		cfg.P = 1
	}
	if cfg.D == 0 {
		cfg.D = 1
	}
	if cfg.B == 0 {
		cfg.B = 64
	}
	if cfg.MaxMsgItems == 0 && cfg.V >= 1 { // RunPar's Validate reports V < 1
		// Composite phases route a small constant number of derived
		// records per input item; a uniform 6× slot bound covers every
		// phase in this repository. It inflates the message matrix by a
		// constant factor only — the complexity shape is unaffected.
		total := 0
		for _, in := range inputs {
			total += len(in)
		}
		cfg.MaxMsgItems = 6*((total+cfg.V-1)/cfg.V) + cfg.V + 16
	}
	res, err := core.RunPar[R](prog, Codec{}, cfg, inputs)
	if err != nil {
		return nil, err
	}
	e.Rounds += res.Rounds
	e.IO.Add(res.IO)
	e.CtxOps += res.CtxOps
	e.MsgOps += res.MsgOps
	e.CommItems += res.CommItems
	e.Supersteps += res.Supersteps
	e.Syscalls += res.Syscalls
	e.MaxTracks = max(e.MaxTracks, res.MaxTracks)
	return res.Outputs, nil
}

// Scatter distributes records by the balanced block distribution.
func Scatter(items []R, v int) [][]R { return cgm.Scatter(items, v) }

// Flatten concatenates output partitions.
func Flatten(parts [][]R) []R {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]R, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// I2F and F2I smuggle exact int64 payloads through the record's float
// fields: both the in-memory path and the disk codec are bit-exact.
func I2F(x int64) float64 { return math.Float64frombits(uint64(x)) }

// F2I is the inverse of I2F.
func F2I(x float64) int64 { return int64(math.Float64bits(x)) }
