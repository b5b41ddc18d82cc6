package costmodel

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/trace"
)

// Row is one compound superstep's predicted-vs-measured accounting: the
// obs span's measured parallel I/Os and duration next to the Theorem 2/3
// prediction for the same (label, round, VP) coordinate.
type Row struct {
	Proc  int    `json:"proc"`
	Round int    `json:"round"`
	VP    int    `json:"vp"`
	Label string `json:"label"`

	PredCtxOps int64 `json:"predCtxOps"`
	PredMsgOps int64 `json:"predMsgOps"`
	MeasCtxOps int64 `json:"measCtxOps"`
	MeasMsgOps int64 `json:"measMsgOps"`
	MeasBlocks int64 `json:"measBlocks"`

	StartNs int64 `json:"startNs"` // on the recorder's clock
	DurNs   int64 `json:"durNs"`
}

// PredOps is the row's total predicted parallel I/Os.
func (r Row) PredOps() int64 { return r.PredCtxOps + r.PredMsgOps }

// RunTotals carries the driver's end-of-run Result aggregates, so the
// ledger can reconcile per-row sums against the totals the CLIs report.
type RunTotals struct {
	Rounds      int           `json:"rounds"`
	ParallelOps int64         `json:"parallelOps"`
	BlocksMoved int64         `json:"blocksMoved"`
	CtxOps      int64         `json:"ctxOps"`
	MsgOps      int64         `json:"msgOps"`
	CommItems   int64         `json:"commItems"`
	Syscalls    int64         `json:"syscalls"`
	Stall       time.Duration `json:"stallNs"`
}

// Run is one driver run's ledger entry.
type Run struct {
	Name    string    `json:"name,omitempty"`
	Machine Machine   `json:"machine"`
	Totals  RunTotals `json:"totals"`
	Rows    []Row     `json:"rows"`

	// PredOps is the summed per-row prediction; WallNs spans the first
	// row's start to the last row's end on the recorder clock.
	PredOps int64 `json:"predOps"`
	WallNs  int64 `json:"wallNs"`
}

// ModelWall returns the run's modelled wall time under tm: the critical
// path of the predicted schedule. The sequential machine is one serial
// stream of parallel I/Os; the parallel machine's processors proceed
// concurrently between round barriers, so each round costs the maximum
// per-processor predicted time.
func (r Run) ModelWall(tm pdm.TimeModel) time.Duration {
	op := tm.OpTime(r.Machine.B)
	var total time.Duration
	// perRound[round][proc] accumulates the parallel machine one round at
	// a time; rows arrive in recording order but procs interleave.
	perRound := map[int]map[int]int64{}
	for _, row := range r.Rows {
		if !r.Machine.Par {
			total += time.Duration(row.PredOps()) * op
			continue
		}
		m := perRound[row.Round]
		if m == nil {
			m = map[int]int64{}
			perRound[row.Round] = m
		}
		m[row.Proc] += row.PredOps()
	}
	for _, procs := range perRound {
		var max int64
		for _, ops := range procs {
			if ops > max {
				max = ops
			}
		}
		total += time.Duration(max) * op
	}
	return total
}

// Ledger accumulates predicted-vs-measured runs. Safe for concurrent
// AddRun calls; a nil *Ledger ignores everything, mirroring the
// nil-Recorder discipline.
type Ledger struct {
	mu   sync.Mutex
	tm   pdm.TimeModel
	runs []Run
}

// NewLedger returns a ledger that models time under tm.
func NewLedger(tm pdm.TimeModel) *Ledger { return &Ledger{tm: tm} }

// SetTimeModel replaces the time model (e.g. after calibration); stored
// runs re-price automatically because model time is computed on demand.
func (l *Ledger) SetTimeModel(tm pdm.TimeModel) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tm = tm
}

// SetRunName names the most recently added run (the drivers don't know
// what workload they execute; the caller does).
func (l *Ledger) SetRunName(name string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.runs) > 0 {
		l.runs[len(l.runs)-1].Name = name
	}
}

// AddRun prices the recorded superstep rows of one engine run against
// machine geometry m and the item counts sz the run held, and appends the
// resulting Run. The engine calls this once per successful run, passing
// the rows recorded since the run began and the Result totals.
func (l *Ledger) AddRun(m Machine, sz *Sizes, steps []obs.SuperstepIO, totals RunTotals) {
	if l == nil {
		return
	}
	pred := newPredictor(m, sz)
	run := Run{Machine: m, Totals: totals, Rows: make([]Row, 0, len(steps))}
	var first, last time.Duration
	for i, s := range steps {
		pc, pm := pred.predictRow(s.Label, s.Round, s.VP, s.Proc)
		run.Rows = append(run.Rows, Row{
			Proc: s.Proc, Round: s.Round, VP: s.VP, Label: s.Label,
			PredCtxOps: pc, PredMsgOps: pm,
			MeasCtxOps: s.CtxOps, MeasMsgOps: s.MsgOps, MeasBlocks: s.Blocks,
			StartNs: int64(s.Start), DurNs: int64(s.Dur),
		})
		run.PredOps += pc + pm
		if i == 0 || s.Start < first {
			first = s.Start
		}
		if end := s.Start + s.Dur; end > last {
			last = end
		}
	}
	run.WallNs = int64(last - first)
	l.mu.Lock()
	l.runs = append(l.runs, run)
	l.mu.Unlock()
}

// Runs returns a copy of the recorded runs.
func (l *Ledger) Runs() []Run {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Run, len(l.runs))
	copy(out, l.runs)
	return out
}

// Reconcile checks every run's predictions against its measurements:
// each row's predicted context and message parallel I/Os must equal the
// measured ones bit-exactly, the per-row sums must equal the driver's
// Result totals, and context + message ops must account for every
// parallel I/O the disk arrays counted. Any mismatch is model drift (or
// a driver accounting bug) and is returned as an error naming the first
// offending coordinate.
func (l *Ledger) Reconcile() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for ri, run := range l.runs {
		var sumCtx, sumMsg int64
		for _, row := range run.Rows {
			if row.PredCtxOps != row.MeasCtxOps || row.PredMsgOps != row.MeasMsgOps {
				return fmt.Errorf(
					"costmodel: run %d (%s) %s round %d vp %d proc %d: predicted ctx=%d msg=%d, measured ctx=%d msg=%d",
					ri, run.Name, row.Label, row.Round, row.VP, row.Proc,
					row.PredCtxOps, row.PredMsgOps, row.MeasCtxOps, row.MeasMsgOps)
			}
			sumCtx += row.MeasCtxOps
			sumMsg += row.MeasMsgOps
		}
		t := run.Totals
		if sumCtx != t.CtxOps || sumMsg != t.MsgOps {
			return fmt.Errorf("costmodel: run %d (%s): row sums ctx=%d msg=%d != result totals ctx=%d msg=%d",
				ri, run.Name, sumCtx, sumMsg, t.CtxOps, t.MsgOps)
		}
		if t.CtxOps+t.MsgOps != t.ParallelOps {
			return fmt.Errorf("costmodel: run %d (%s): ctx %d + msg %d != parallel ops %d",
				ri, run.Name, t.CtxOps, t.MsgOps, t.ParallelOps)
		}
	}
	return nil
}

// SummaryTable renders one line per run: predicted vs measured parallel
// I/Os, modelled vs measured wall time, stall and syscall context.
func (l *Ledger) SummaryTable() *trace.Table {
	t := &trace.Table{
		Title: "Cost-model ledger: predicted vs measured",
		Columns: []string{"run", "machine", "rounds", "pred IOs", "meas IOs",
			"model ms", "wall ms", "stall ms", "syscalls"},
		Notes: []string{
			"pred IOs: Theorem 2/3 accounting replayed over the staggered layout",
			"model ms: predicted critical-path time under the ledger's TimeModel",
			"wall ms: first-row start to last-row end on the recorder clock",
		},
	}
	if l == nil {
		return t
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, run := range l.runs {
		name := run.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		mach := "seq"
		if run.Machine.Par {
			mach = fmt.Sprintf("par p=%d", run.Machine.P)
		}
		t.AddRow(name, mach, run.Totals.Rounds,
			run.PredOps, run.Totals.ParallelOps,
			trace.FormatFloat(run.ModelWall(l.tm).Seconds()*1e3),
			trace.FormatFloat(float64(run.WallNs)/1e6),
			trace.FormatFloat(run.Totals.Stall.Seconds()*1e3),
			run.Totals.Syscalls)
	}
	return t
}

// ledgerJSON is the versioned export schema.
type ledgerJSON struct {
	Version   int           `json:"version"`
	TimeModel timeModelJSON `json:"timeModel"`
	Runs      []ExportedRun `json:"runs"`
}

type timeModelJSON struct {
	SeekNs      int64   `json:"seekNs"`
	RotateNs    int64   `json:"rotateNs"`
	BytesPerSec float64 `json:"bytesPerSec"`
}

// ExportedRun is one run as it appears in the JSON export: the Run plus
// its modelled wall time frozen under the time model the export carried.
type ExportedRun struct {
	Run
	ModelWallNs int64 `json:"modelWallNs"`
}

// LedgerVersion is the JSON export schema version.
const LedgerVersion = 1

// WriteJSON exports the ledger — time model, runs, rows, and the
// modelled wall time of each run under the current model.
func (l *Ledger) WriteJSON(w io.Writer) error {
	out := ledgerJSON{Version: LedgerVersion}
	if l != nil {
		l.mu.Lock()
		out.TimeModel = timeModelJSON{
			SeekNs:      l.tm.Seek.Nanoseconds(),
			RotateNs:    l.tm.Rotate.Nanoseconds(),
			BytesPerSec: l.tm.TransferBytesPerSec,
		}
		out.Runs = make([]ExportedRun, len(l.runs))
		for i, run := range l.runs {
			out.Runs[i] = ExportedRun{Run: run, ModelWallNs: int64(run.ModelWall(l.tm))}
		}
		l.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
