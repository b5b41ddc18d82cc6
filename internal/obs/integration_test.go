package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wordcodec"
)

// shuffle is a small multi-round program: each VP scatters its items by
// value modulo v for k rounds, so every round moves real messages.
type shuffle struct{ k int }

func (shuffle) Init(vp *cgm.VP[int64], input []int64) { vp.State = append([]int64(nil), input...) }
func (p shuffle) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	if round > 0 {
		vp.State = vp.State[:0]
		for _, msg := range inbox {
			vp.State = append(vp.State, msg...)
		}
	}
	if round == p.k {
		return nil, true
	}
	out := make([][]int64, vp.V)
	for _, x := range vp.State {
		d := int(x % int64(vp.V))
		out[d] = append(out[d], x+1)
	}
	return out, false
}
func (p shuffle) Output(vp *cgm.VP[int64]) []int64 { return vp.State }

// MaxContextItems declares μ: twice a VP's share of the input.
func (shuffle) MaxContextItems(n, v int) int { return 2 * ((n + v - 1) / v) }

func seqInputs(n, v int) [][]int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	return cgm.Scatter(xs, v)
}

// traceEvent mirrors the subset of the Chrome trace-event schema the
// validation below needs.
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur"`
	Tid  int      `json:"tid"`
	Args struct {
		Name   string `json:"name"`
		Label  string `json:"label"`
		CtxOps int64  `json:"ctxOps"`
		MsgOps int64  `json:"msgOps"`
		Blocks int64  `json:"blocks"`
		Value  int64  `json:"value"` // counter ("C") events
	} `json:"args"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// decodeTrace renders rec's Chrome trace and parses it back.
func decodeTrace(t *testing.T, rec *obs.Recorder) traceFile {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	return tf
}

// reconcile checks the recorder's accounting against the run's: the
// trace rows must sum exactly to the machine's I/O counters, and the
// Chrome export must be well-formed with phases nested in their
// enclosing superstep/route spans.
func reconcile(t *testing.T, rec *obs.Recorder, res *core.Result[int64]) {
	t.Helper()

	var ctx, msg, blocks int64
	for _, s := range rec.Supersteps() {
		ctx += s.CtxOps
		msg += s.MsgOps
		blocks += s.Blocks
	}
	if ctx != res.CtxOps {
		t.Errorf("trace ctx ops = %d, run counted %d", ctx, res.CtxOps)
	}
	if msg != res.MsgOps {
		t.Errorf("trace msg ops = %d, run counted %d", msg, res.MsgOps)
	}
	if ctx+msg != res.IO.ParallelOps {
		t.Errorf("trace total ops = %d, IOStats.ParallelOps = %d", ctx+msg, res.IO.ParallelOps)
	}
	if blocks != res.IO.BlocksMoved {
		t.Errorf("trace blocks = %d, IOStats.BlocksMoved = %d", blocks, res.IO.BlocksMoved)
	}
	if d := rec.DroppedEvents(); d != 0 {
		t.Errorf("dropped %d events", d)
	}

	tf := decodeTrace(t, rec)
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	// Every phase span must nest inside a superstep or route span on
	// the same track. Timestamps are microseconds rounded from
	// nanoseconds, so allow a rounding epsilon.
	const eps = 0.002
	var parents, phases []traceEvent
	argTotal := struct{ ctx, msg, blocks int64 }{}
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph != "X":
		case e.Cat == "superstep" || e.Cat == "route":
			parents = append(parents, e)
			argTotal.ctx += e.Args.CtxOps
			argTotal.msg += e.Args.MsgOps
			argTotal.blocks += e.Args.Blocks
		case e.Cat == "phase":
			phases = append(phases, e)
		}
	}
	if len(parents) == 0 || len(phases) == 0 {
		t.Fatalf("trace has %d parent and %d phase spans", len(parents), len(phases))
	}
	if argTotal.ctx != res.CtxOps || argTotal.msg != res.MsgOps || argTotal.blocks != res.IO.BlocksMoved {
		t.Errorf("chrome args totals (%d ctx, %d msg, %d blocks) differ from run (%d, %d, %d)",
			argTotal.ctx, argTotal.msg, argTotal.blocks, res.CtxOps, res.MsgOps, res.IO.BlocksMoved)
	}
	for _, ph := range phases {
		end := ph.Ts
		if ph.Dur != nil {
			end += *ph.Dur
		}
		nested := false
		for _, pa := range parents {
			if pa.Tid != ph.Tid || pa.Dur == nil {
				continue
			}
			if pa.Ts-eps <= ph.Ts && pa.Ts+*pa.Dur+eps >= end {
				nested = true
				break
			}
		}
		if !nested {
			t.Errorf("phase span %q at tid %d ts %v dur %v not nested in any superstep span",
				ph.Name, ph.Tid, ph.Ts, ph.Dur)
		}
	}
}

func TestSeqTraceReconciles(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := core.Config{V: 4, P: 1, D: 2, B: 16, MaxMsgItems: 16, Recorder: rec}
	res, err := core.RunSeq[int64](shuffle{k: 3}, wordcodec.I64{}, cfg, seqInputs(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, rec, res)
}

func TestParTraceReconciles(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := core.Config{V: 4, P: 2, D: 2, B: 16, MaxMsgItems: 16, Recorder: rec}
	res, err := core.RunPar[int64](shuffle{k: 3}, wordcodec.I64{}, cfg, seqInputs(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	reconcile(t, rec, res)

	// The parallel machine traces per-disk spans onto their own tracks,
	// one per disk of each processor, and its parallel-op gauges render as
	// counter events holding each processor's final count.
	tf := decodeTrace(t, rec)
	tids := map[string]int{}
	spans := map[int]int{}
	counters := map[string]int64{}
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			tids[e.Args.Name] = e.Tid
		case e.Ph == "X" && e.Cat == "disk":
			spans[e.Tid]++
		case e.Ph == "C":
			counters[e.Name] = e.Args.Value
		}
	}
	for proc := range cfg.P {
		for disk := range cfg.D {
			track := fmt.Sprintf("p%d disk %d", proc, disk)
			if tid, ok := tids[track]; !ok {
				t.Errorf("no %q track", track)
			} else if spans[tid] == 0 {
				t.Errorf("track %q has no disk span", track)
			}
		}
		name := fmt.Sprintf("pdm_p%d_parallel_ops", proc)
		if got, ok := counters[name]; !ok {
			t.Errorf("no %s counter event", name)
		} else if want := res.IOPerProc[proc].ParallelOps; got != want {
			t.Errorf("%s = %d, want processor %d's %d parallel ops", name, got, proc, want)
		}
	}
}

// TestBalancedParTrace checks the BalancedRouting message-size recording:
// every round's messages stay within the slot the run provisioned, and
// the table names the rule that set it.
func TestBalancedParTrace(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := core.Config{V: 4, P: 2, D: 2, B: 16, Recorder: rec, Balanced: true}
	res, err := core.RunPar[int64](shuffle{k: 3}, wordcodec.I64{}, cfg, seqInputs(64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.IO.ParallelOps == 0 {
		t.Fatal("balanced run did no I/O")
	}
	st := rec.MsgStats()
	if len(st) == 0 {
		t.Fatal("no message statistics recorded")
	}
	for _, s := range st {
		if s.Bound <= 0 {
			t.Fatalf("round %d has no bound", s.Round)
		}
		if s.Max > s.Bound {
			t.Errorf("round %d max message %d exceeds the slot bound %d", s.Round, s.Max, s.Bound)
		}
		if s.Count != 4*4 {
			t.Errorf("round %d recorded %d messages, want v² = 16", s.Round, s.Count)
		}
	}
	if rows := rec.MsgTable().Rows; len(rows) != len(st) {
		t.Errorf("msg table has %d rows, want %d", len(rows), len(st))
	}
	// The table names the rule that set the slot: Theorem 1's unless the
	// Config overrides it.
	note := func(r *obs.Recorder) string { n := r.MsgTable().Notes; return n[len(n)-1] }
	if got := note(rec); !strings.HasSuffix(got, "set by Theorem 1's h/v + (v-1)/2 + 1") {
		t.Errorf("note %q, want Theorem 1's rule", got)
	}
	cfg.Recorder, cfg.MaxMsgItems = obs.NewRecorder(), 40
	if _, err := core.RunPar[int64](shuffle{k: 3}, wordcodec.I64{}, cfg, seqInputs(64, 4)); err != nil {
		t.Fatal(err)
	}
	if st := cfg.Recorder.MsgStats(); st[0].Bound != 40 {
		t.Errorf("bound %d, want the Config's 40", st[0].Bound)
	}
	if got := note(cfg.Recorder); !strings.Contains(got, "set by Config.MaxMsgItems, in place of Theorem 1's") {
		t.Errorf("note %q, want the Config's MaxMsgItems named", got)
	}
}
