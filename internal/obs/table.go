package obs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/trace"
)

// SuperstepTable renders the per-superstep accounting as a summary table:
// one row per recorded superstep (plus the route rows), with the
// context/message I/O split, wall time, and — when opTime is non-zero —
// the modelled disk time of the row's parallel I/Os under a
// pdm.TimeModel's per-operation cost. Rows are ordered by round, then
// processor, then virtual processor, so seq and par runs print stably.
func (r *Recorder) SuperstepTable(opTime time.Duration) *trace.Table {
	t := &trace.Table{
		Title:   "per-superstep I/O (context + message parallel I/Os, modelled disk time)",
		Columns: []string{"round", "proc", "vp", "phase", "ctx I/Os", "msg I/Os", "blocks", "wall", "modelled I/O"},
	}
	steps := r.Supersteps()
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].Round != steps[j].Round {
			return steps[i].Round < steps[j].Round
		}
		if steps[i].Proc != steps[j].Proc {
			return steps[i].Proc < steps[j].Proc
		}
		return steps[i].VP < steps[j].VP
	})
	var ctx, msg, blocks int64
	for _, s := range steps {
		ctx += s.CtxOps
		msg += s.MsgOps
		blocks += s.Blocks
		t.AddRow(s.Round, s.Proc, s.VP, s.Label, s.CtxOps, s.MsgOps, s.Blocks,
			s.Dur.Round(time.Microsecond).String(), modelled(s.CtxOps+s.MsgOps, opTime))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("totals: %d context + %d message parallel I/Os, %d blocks, modelled %s",
			ctx, msg, blocks, modelled(ctx+msg, opTime)),
		"vp = -1 marks a processor's route row")
	return t
}

func modelled(ops int64, opTime time.Duration) string {
	if opTime <= 0 {
		return "-"
	}
	return (time.Duration(ops) * opTime).String()
}

// MsgTable renders BalancedRouting's per-round message-size statistics
// against the message slot the run provisioned.
func (r *Recorder) MsgTable() *trace.Table {
	t := &trace.Table{
		Title:   "BalancedRouting — message sizes per round vs the provisioned slot",
		Columns: []string{"round", "msgs", "min", "avg", "max", "bound", "within"},
	}
	for _, s := range r.MsgStats() {
		avg := 0.0
		if s.Count > 0 {
			avg = float64(s.Sum) / float64(s.Count)
		}
		within := "-"
		if s.Bound > 0 {
			if s.Max <= s.Bound {
				within = "yes"
			} else {
				within = "NO"
			}
		}
		t.AddRow(s.Round, s.Count, s.Min, trace.FormatFloat(avg), s.Max, s.Bound, within)
	}
	note := "bound = the provisioned disk slot (items)"
	if rule := r.msgSlotRule(); rule != "" {
		note += ", set by " + rule
	}
	t.Notes = append(t.Notes, note)
	return t
}
