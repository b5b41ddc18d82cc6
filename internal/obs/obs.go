// Package obs is the observability layer of the EM-CGM simulation: a
// Recorder that collects superstep/phase spans, per-disk latency
// histograms, counters and per-round message-size statistics, and exports
// them as a Chrome trace-event file (chrome://tracing / Perfetto), a
// per-superstep summary trace.Table, and a Prometheus-style text endpoint.
//
// The design contract, inherited from the PR 1 hot-path discipline, is
// that a *disabled* recorder costs one nil check and zero allocations:
// every exported method is safe on a nil *Recorder (and nil *Counter /
// *Histogram) and returns immediately. Packages therefore hold a plain
// *Recorder field that is nil by default; no build tags, no interfaces,
// no indirection on the hot path.
//
// An *enabled* recorder may allocate (appending events amortises through
// slice growth) but never blocks I/O: histogram and counter updates are
// atomic, and span emission takes one short mutex-protected append. Event
// storage is capped (DroppedEvents reports overflow) so a long run cannot
// grow the trace without bound.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TrackID names one horizontal track of the trace: one per real processor
// plus one per disk (and one "machine" track for run-global phases). It
// becomes the Chrome trace tid.
type TrackID int32

// maxEvents caps stored trace events; further spans are counted in
// dropped instead of stored, so recording cannot exhaust memory.
const maxEvents = 1 << 20

// event is one stored trace entry. dur < 0 marks an instant event.
type event struct {
	name  string
	cat   string
	track TrackID
	ts    time.Duration
	dur   time.Duration
	io    *SuperstepIO // args of superstep-level spans, nil otherwise
}

// SuperstepIO is the per-superstep accounting attached to a superstep
// span: which processor simulated which virtual processor in which round,
// and the parallel I/O it paid, split exactly like Result.CtxOps/MsgOps.
// Label distinguishes the row kinds: "superstep" (one compound superstep;
// round 0's are the input distribution) and "route" (the parallel
// machine's landing of the batches from other processors). Summing
// CtxOps+MsgOps over all rows of a run
// reconciles with pdm.IOStats.ParallelOps — the golden-trace tests pin
// this.
type SuperstepIO struct {
	Proc   int // real processor
	Round  int // compound-superstep round
	VP     int // virtual processor, -1 for a processor's route row
	Label  string
	CtxOps int64 // context-swap parallel I/Os
	MsgOps int64 // message-matrix parallel I/Os
	Blocks int64 // individual block transfers

	// Start and Dur locate the superstep on the recorder's clock.
	Start, Dur time.Duration
}

// msgAgg accumulates message sizes of one balanced-routing round.
type msgAgg struct {
	count int64
	sum   int64
	min   int
	max   int
}

// Recorder collects a run's trace. The zero value is not usable;
// construct with NewRecorder. A nil *Recorder is the disabled state: all
// methods no-op.
type Recorder struct {
	start time.Time
	clock func() time.Duration // test hook; nil means time.Since(start)

	mu        sync.Mutex
	tracks    []string
	events    []event
	dropped   int64
	steps     []SuperstepIO
	counters  []*Counter
	hists     []*Histogram
	fits      []*FitAcc
	gauges    []gauge
	msgBound  int
	msgRounds map[int]*msgAgg
}

// NewRecorder returns an enabled recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now(), msgRounds: map[int]*msgAgg{}}
}

func (r *Recorder) now() time.Duration {
	if r.clock != nil {
		return r.clock()
	}
	return time.Since(r.start)
}

// Track registers a named track and returns its ID. Tracks render as
// named rows in the Chrome trace, in registration order.
func (r *Recorder) Track(name string) TrackID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks = append(r.tracks, name)
	return TrackID(len(r.tracks) - 1)
}

func (r *Recorder) emit(e event) {
	r.mu.Lock()
	r.emitLocked(e)
	r.mu.Unlock()
}

func (r *Recorder) emitLocked(e event) {
	if len(r.events) >= maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Span is an in-progress interval on one track. The zero Span (returned
// by a nil recorder) ignores End calls.
type Span struct {
	r     *Recorder
	track TrackID
	name  string
	cat   string
	start time.Duration
}

// Begin opens a span on track. Safe (and free) on a nil recorder.
func (r *Recorder) Begin(track TrackID, name, cat string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, track: track, name: name, cat: cat, start: r.now()}
}

// End closes the span and stores it.
func (s Span) End() {
	if s.r == nil {
		return
	}
	s.r.emit(event{name: s.name, cat: s.cat, track: s.track, ts: s.start, dur: s.r.now() - s.start})
}

// EndIO closes a superstep-level span, attaching its I/O accounting both
// to the Chrome event args and to the summary table rows.
func (s Span) EndIO(io SuperstepIO) {
	if s.r == nil {
		return
	}
	io.Start = s.start
	io.Dur = s.r.now() - s.start
	s.r.mu.Lock()
	s.r.steps = append(s.r.steps, io)
	s.r.emitLocked(event{name: s.name, cat: s.cat, track: s.track, ts: io.Start, dur: io.Dur, io: &io})
	s.r.mu.Unlock()
}

// SpanSince stores a completed span that was timed externally with
// time.Now — the disk workers use this so the recorder's mutex is taken
// after the transfer, never during it.
func (r *Recorder) SpanSince(track TrackID, name, cat string, start time.Time) {
	if r == nil {
		return
	}
	r.emit(event{name: name, cat: cat, track: track, ts: start.Sub(r.start), dur: time.Since(start)})
}

// Event stores an instant event.
func (r *Recorder) Event(track TrackID, name, cat string) {
	if r == nil {
		return
	}
	r.emit(event{name: name, cat: cat, track: track, ts: r.now(), dur: -1})
}

// Supersteps returns a copy of the per-superstep accounting rows in
// recording order.
func (r *Recorder) Supersteps() []SuperstepIO {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SuperstepIO, len(r.steps))
	copy(out, r.steps)
	return out
}

// StepCount returns the number of superstep rows recorded so far. Drivers
// capture it before a run so StepsSince can slice out exactly that run's
// rows even when one recorder observes several runs.
func (r *Recorder) StepCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.steps)
}

// StepsSince returns a copy of the superstep rows recorded at index from
// onward (in recording order). from values outside the recorded range
// yield nil.
func (r *Recorder) StepsSince(from int) []SuperstepIO {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if from < 0 || from >= len(r.steps) {
		return nil
	}
	out := make([]SuperstepIO, len(r.steps)-from)
	copy(out, r.steps[from:])
	return out
}

// DroppedEvents reports how many events were discarded after the storage
// cap was reached.
func (r *Recorder) DroppedEvents() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Counter is a named atomic counter. A nil *Counter ignores updates, so
// holders need not re-check the recorder.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// gauge is a named read-on-export value, used to surface counters that
// already exist elsewhere (e.g. pdm's atomic IOStats) without duplicating
// their hot-path updates.
type gauge struct {
	name string
	f    func() int64
}

// Gauge registers f to be sampled at metrics-export time under name.
func (r *Recorder) Gauge(name string, f func() int64) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gauge{name: name, f: f})
}

// SetMsgBound records Theorem 1's message-size bound (items) so the
// message-size table can report each round against it.
func (r *Recorder) SetMsgBound(bound int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgBound = bound
}

// MsgSize folds one routed message's size (items) into round's
// statistics. BalancedRouting calls this once per produced message.
func (r *Recorder) MsgSize(round, size int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.msgRounds[round]
	if a == nil {
		a = &msgAgg{min: size, max: size}
		r.msgRounds[round] = a
	}
	a.count++
	a.sum += int64(size)
	if size < a.min {
		a.min = size
	}
	if size > a.max {
		a.max = size
	}
}

// MsgRoundStats summarises the message sizes of one balanced round.
type MsgRoundStats struct {
	Round int
	Count int64 // messages recorded (including empty ones)
	Min   int
	Max   int
	Sum   int64
	Bound int // Theorem 1 slot bound; 0 if never set
}

// MsgStats returns per-round message-size statistics sorted by round.
func (r *Recorder) MsgStats() []MsgRoundStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MsgRoundStats, 0, len(r.msgRounds))
	for round, a := range r.msgRounds {
		out = append(out, MsgRoundStats{
			Round: round, Count: a.count, Min: a.min, Max: a.max, Sum: a.sum, Bound: r.msgBound,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}
