package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilRecorderIsInert exercises every exported method on a nil
// recorder: the disabled path must be a no-op, never a panic.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	tr := r.Track("x")
	if tr != 0 {
		t.Errorf("nil Track = %d, want 0", tr)
	}
	s := r.Begin(tr, "a", "b")
	s.End()
	s.EndIO(SuperstepIO{CtxOps: 1})
	r.SpanSince(tr, "a", "b", time.Now())
	r.Gauge("g", func() int64 { return 1 })
	r.SetMsgBound(10, "test")
	r.MsgSize(0, 5)
	if st := r.MsgStats(); st != nil {
		t.Errorf("nil MsgStats = %v", st)
	}
	if st := r.Supersteps(); st != nil {
		t.Errorf("nil Supersteps = %v", st)
	}
	if d := r.DroppedEvents(); d != 0 {
		t.Errorf("nil DroppedEvents = %d", d)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `{"traceEvents":[],"displayTimeUnit":"ms"}`+"\n" {
		t.Errorf("nil trace = %q", buf.String())
	}
}

// TestCounterAndGauge checks that a gauge renders as one Chrome counter
// ("C") event holding the value sampled at export, stamped at the end of
// the recorded interval.
func TestCounterAndGauge(t *testing.T) {
	r := NewRecorder()
	r.clock = func() time.Duration { return 500 * time.Microsecond }
	n := int64(40)
	r.Gauge("g", func() int64 { return n })
	n += 2 // sampled at export, not at registration
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"g","cat":"counter","ph":"C","ts":500,"pid":0,"tid":0,"args":{"value":42}}`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("trace lacks the gauge's counter event %s:\n%s", want, buf.String())
	}
}

func TestMsgStats(t *testing.T) {
	r := NewRecorder()
	r.SetMsgBound(9, "test")
	r.MsgSize(1, 4)
	r.MsgSize(0, 7)
	r.MsgSize(0, 3)
	r.MsgSize(0, 5)
	st := r.MsgStats()
	if len(st) != 2 || st[0].Round != 0 || st[1].Round != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Count != 3 || st[0].Min != 3 || st[0].Max != 7 || st[0].Sum != 15 || st[0].Bound != 9 {
		t.Errorf("round 0 stats = %+v", st[0])
	}
	tb := r.MsgTable()
	if len(tb.Rows) != 2 || tb.Rows[0][6] != "yes" {
		t.Errorf("msg table rows = %v", tb.Rows)
	}
	if note := tb.Notes[len(tb.Notes)-1]; !strings.HasSuffix(note, "set by test") {
		t.Errorf("msg table note %q does not name the rule that set the slot", note)
	}
}

func TestEventCapDrops(t *testing.T) {
	r := NewRecorder()
	tr := r.Track("t")
	r.mu.Lock()
	r.events = make([]event, maxEvents) // simulate a full buffer
	r.mu.Unlock()
	r.Begin(tr, "x", "y").End()
	r.SpanSince(tr, "s", "c", time.Now())
	if d := r.DroppedEvents(); d != 2 {
		t.Errorf("dropped = %d, want 2", d)
	}
}

func TestSuperstepTable(t *testing.T) {
	r := NewRecorder()
	tr := r.Track("proc 0")
	s := r.Begin(tr, "superstep", "superstep")
	s.EndIO(SuperstepIO{Proc: 0, Round: 1, VP: 0, Label: "superstep", CtxOps: 4, MsgOps: 2, Blocks: 12})
	s = r.Begin(tr, "route batches", "route")
	s.EndIO(SuperstepIO{Proc: 0, Round: 0, VP: -1, Label: "route", MsgOps: 8, Blocks: 16})
	tb := r.SuperstepTable(time.Millisecond)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// Round 0's route row must sort before the round-1 superstep.
	if tb.Rows[0][3] != "route" || tb.Rows[1][3] != "superstep" {
		t.Errorf("row order: %v", tb.Rows)
	}
	if tb.Rows[1][8] != "6ms" {
		t.Errorf("modelled time = %q, want 6ms", tb.Rows[1][8])
	}
	found := false
	for _, n := range tb.Notes {
		if strings.Contains(n, "4 context + 10 message") {
			found = true
		}
	}
	if !found {
		t.Errorf("totals note missing: %v", tb.Notes)
	}
	// opTime 0 renders "-" instead of a modelled time.
	if tb0 := r.SuperstepTable(0); tb0.Rows[0][8] != "-" {
		t.Errorf("modelled time without opTime = %q", tb0.Rows[0][8])
	}
}

// TestChromeTraceGolden pins the exact bytes of the Chrome trace export
// under an injected deterministic clock: field order, metadata events,
// microsecond timestamps, span args.
func TestChromeTraceGolden(t *testing.T) {
	r := NewRecorder()
	tick := 0
	r.clock = func() time.Duration {
		d := time.Duration(tick) * 100 * time.Microsecond
		tick++
		return d
	}
	tr := r.Track("proc 0")
	ss := r.Begin(tr, "superstep", "superstep") // t=0
	sp := r.Begin(tr, "ctx read", "phase")      // t=100µs
	sp.End()                                    // ends at 200µs
	ss.EndIO(SuperstepIO{Proc: 0, Round: 0, VP: 0, Label: "superstep",
		CtxOps: 2, MsgOps: 1, Blocks: 6}) // ends at 300µs

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"emcgm"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"proc 0"}},` +
		`{"name":"thread_sort_index","ph":"M","ts":0,"pid":0,"tid":0,"args":{"sort_index":0}},` +
		`{"name":"ctx read","cat":"phase","ph":"X","ts":100,"dur":100,"pid":0,"tid":0},` +
		`{"name":"superstep","cat":"superstep","ph":"X","ts":0,"dur":300,"pid":0,"tid":0,` +
		`"args":{"proc":0,"round":0,"vp":0,"label":"superstep","ctxOps":2,"msgOps":1,"blocks":6}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if buf.String() != want {
		t.Errorf("golden mismatch:\ngot  %s\nwant %s", buf.String(), want)
	}
}
