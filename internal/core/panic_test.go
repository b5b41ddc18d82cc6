package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/pdm"
	"repro/internal/workload"
)

// panics is echo with a panic of VP vp at one stage: Init, Round in
// round, or Output.
type panics struct {
	echo
	stage     string
	vp, round int
}

func (p panics) Init(vp *cgm.VP[int64], input []int64) {
	if p.stage == "init" && vp.ID == p.vp {
		panic("init fails")
	}
	p.echo.Init(vp, input)
}

func (p panics) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if p.stage == "round" && vp.ID == p.vp && round == p.round {
		panic("round fails")
	}
	return p.echo.Round(vp, round, inbox)
}

func (p panics) Output(vp *cgm.VP[int64]) []int64 {
	if p.stage == "output" && vp.ID == p.vp {
		panic("output fails")
	}
	return p.echo.Output(vp)
}

// TestProgramPanicReturnsError: a program that panics — in Init, in a
// Round or in Output — fails the run with an error that names the round
// and the VP, as cgm.Run returns one, instead of killing the process; and
// the run leaves nothing behind, on both machines, at every depth, with
// one compute worker and with two.
func TestProgramPanicReturnsError(t *testing.T) {
	const v = 8
	parts := cgm.Scatter(workload.Int64s(5, 96), v)
	mem := func(proc, disk int) pdm.Disk { return pdm.NewMemDisk(8) }
	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 2}} {
		for _, k := range []int{1, 2, 0} {
			for _, c := range []int{1, 2} {
				for _, prog := range []panics{
					{stage: "init", vp: 5},
					{stage: "round", vp: 5, round: 0},
					{stage: "round", vp: 6, round: 2},
					{stage: "output", vp: 5, round: 3},
				} {
					tag := fmt.Sprintf("seq=%v p=%d k=%d c=%d %s vp %d round %d", m.seq, m.p, k, c, prog.stage, prog.vp, prog.round)
					cfg := core.Config{V: v, P: m.p, D: 2, B: 8, MaxMsgItems: 16, PipelineDepth: k}
					var err error
					core.AtProcs(c*m.p, func() { err = watchedProg(t, tag, m.seq, sized[int64]{prog, 16}, cfg, mem, parts) })
					if err == nil {
						t.Fatalf("%s: the run returned no error", tag)
					}
					want := fmt.Sprintf("round %d vp %d: program panicked: %s fails", prog.round, prog.vp, prog.stage)
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s: err = %v, want it to say %q", tag, err, want)
					}
				}
			}
		}
	}
}
