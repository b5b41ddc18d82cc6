package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cgm"
	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
)

// Span names, one per layer boundary the benchmark can reach from outside
// the program: the disk interface below pdm's workers, the program
// interface above core, and the bulk codec interface beside it.
const (
	spanIteration = "iteration"
	spanDiskRead  = "pdm.read"
	spanDiskWrite = "pdm.write"
	spanInit      = "cgm.init"
	spanRound     = "cgm.round"
	spanEncode    = "wordcodec.encode"
	spanDecode    = "wordcodec.decode"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was made. Parent is the ID of the iteration span that caused it
// (0 for the iteration itself). N is the work the call moved: tracks for
// a disk call, words for a codec call. Runs is the number of contiguous
// track runs of a disk call.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	N        int    `json:"n,omitempty"`
	Runs     int    `json:"runs,omitempty"`
}

// tracer collects the spans and counts of traced iterations. The wrappers
// below call add from the program's own goroutines (p processors, one
// worker per disk), so it locks; at the few hundred thousand spans per
// second the workloads produce the lock is not contended enough to show.
type tracer struct {
	t0   time.Time
	keep bool // -spans was given: spans outlive their iteration

	mu       sync.Mutex
	spans    []span
	nextID   int
	iter     int // ID of the open iteration span
	from     int // index in spans of the open iteration span
	workload string
	err      error // first error a wrapper could not return to its caller

	// Per-iteration public observers of the program: core fills them when
	// they are attached through core.Config (or rec.Exec).
	rec    *obs.Recorder
	ledger *costmodel.Ledger
}

func newTracer(keep bool) *tracer {
	return &tracer{t0: time.Now(), keep: keep}
}

// begin opens an iteration span and fresh observers. The ledger starts on
// the default time model so that core's auto depth starts where an
// unobserved run's does; it is re-priced after the run.
func (t *tracer) begin(workload string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.keep {
		t.spans = t.spans[:0]
	}
	t.nextID++
	t.iter, t.from, t.workload, t.err = t.nextID, len(t.spans), workload, nil
	t.spans = append(t.spans, span{ID: t.iter, Workload: workload, Name: spanIteration, Start: int64(time.Since(t.t0))})
	t.rec = obs.NewRecorder()
	t.ledger = costmodel.NewLedger(pdm.DefaultTimeModel())
}

// add records one finished call that started at start.
func (t *tracer) add(name string, start time.Time, n, runs int) {
	end := time.Now()
	t.mu.Lock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: t.iter, Workload: t.workload, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n, Runs: runs,
	})
	t.mu.Unlock()
}

func (t *tracer) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// layerSums is what one iteration's spans add up to, per layer.
type layerSums struct {
	diskBusy, compute, codec time.Duration
	diskCalls, tracks, runs  int64
	codecWords               int64
}

// end closes the iteration span and sums its children.
func (t *tracer) end() (layerSums, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s layerSums
	t.spans[t.from].End = int64(time.Since(t.t0))
	for _, sp := range t.spans[t.from+1:] {
		d := time.Duration(sp.End - sp.Start)
		switch sp.Name {
		case spanDiskRead, spanDiskWrite:
			s.diskBusy += d
			s.diskCalls++
			s.tracks += int64(sp.N)
			s.runs += int64(sp.Runs)
		case spanInit, spanRound:
			s.compute += d
		case spanEncode, spanDecode:
			s.codec += d
			s.codecWords += int64(sp.N)
		}
	}
	return s, t.err
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracedDisk times every transfer of the disk it wraps. It implements
// pdm.BatchDisk and pdm.SyscallCounter like the disks it wraps, so pdm's
// workers coalesce through it exactly as they do without it.
type tracedDisk struct {
	inner pdm.BatchDisk
	tr    *tracer
}

func (d tracedDisk) ReadTrack(t int, dst []pdm.Word) error {
	start := time.Now()
	err := d.inner.ReadTrack(t, dst)
	d.tr.add(spanDiskRead, start, 1, 1)
	return err
}

func (d tracedDisk) WriteTrack(t int, src []pdm.Word) error {
	start := time.Now()
	err := d.inner.WriteTrack(t, src)
	d.tr.add(spanDiskWrite, start, 1, 1)
	return err
}

func (d tracedDisk) ReadTracks(tracks []int, bufs [][]pdm.Word) error {
	start := time.Now()
	err := d.inner.ReadTracks(tracks, bufs)
	d.tr.add(spanDiskRead, start, len(tracks), contiguousRuns(tracks))
	return err
}

func (d tracedDisk) WriteTracks(tracks []int, bufs [][]pdm.Word) error {
	start := time.Now()
	err := d.inner.WriteTracks(tracks, bufs)
	d.tr.add(spanDiskWrite, start, len(tracks), contiguousRuns(tracks))
	return err
}

func (d tracedDisk) BlockSize() int { return d.inner.BlockSize() }
func (d tracedDisk) Tracks() int    { return d.inner.Tracks() }
func (d tracedDisk) Close() error   { return d.inner.Close() }

func (d tracedDisk) Syscalls() int64 {
	if sc, ok := d.inner.(pdm.SyscallCounter); ok {
		return sc.Syscalls()
	}
	return 0
}

// contiguousRuns counts the maximal runs of consecutive tracks in a
// strictly ascending batch: what a positioning device pays once each.
func contiguousRuns(tracks []int) int {
	runs := 0
	for i, t := range tracks {
		if i == 0 || t != tracks[i-1]+1 {
			runs++
		}
	}
	return runs
}

// tracedProgram times the program's local computation: every Init and
// Round call the machine makes.
type tracedProgram[T any] struct {
	inner cgm.Program[T]
	tr    *tracer
}

func (p tracedProgram[T]) Init(vp *cgm.VP[T], input []T) {
	start := time.Now()
	p.inner.Init(vp, input)
	p.tr.add(spanInit, start, 0, 0)
}

func (p tracedProgram[T]) Round(vp *cgm.VP[T], round int, inbox [][]T) ([][]T, bool) {
	start := time.Now()
	out, done := p.inner.Round(vp, round, inbox)
	p.tr.add(spanRound, start, 0, 0)
	return out, done
}

func (p tracedProgram[T]) Output(vp *cgm.VP[T]) []T { return p.inner.Output(vp) }

// MaxContextItems forwards the inner program's context bound, so the
// machine reserves the same disk space with and without the wrapper; 0
// makes core fall back to its default, as it does for a program that
// declares none.
func (p tracedProgram[T]) MaxContextItems(n, v int) int {
	if cs, ok := p.inner.(cgm.ContextSizer); ok {
		return cs.MaxContextItems(n, v)
	}
	return 0
}

// tracedCodec times every slice the machine encodes or decodes. It always
// offers the bulk interface and hands the slice to wordcodec's own
// dispatch, which takes the inner codec's bulk path if it has one and the
// per-item loop if not — the same choice core makes without the wrapper.
type tracedCodec[T any] struct {
	inner wordcodec.Codec[T]
	tr    *tracer
}

func (c tracedCodec[T]) Words() int                 { return c.inner.Words() }
func (c tracedCodec[T]) Encode(dst []pdm.Word, v T) { c.inner.Encode(dst, v) }
func (c tracedCodec[T]) Decode(src []pdm.Word) T    { return c.inner.Decode(src) }

func (c tracedCodec[T]) EncodeSliceInto(dst []pdm.Word, items []T) {
	start := time.Now()
	wordcodec.EncodeInto(c.inner, dst, items)
	c.tr.add(spanEncode, start, len(dst), 0)
}

func (c tracedCodec[T]) DecodeSliceInto(dst []T, src []pdm.Word) {
	start := time.Now()
	wordcodec.DecodeInto(c.inner, dst, src)
	c.tr.add(spanDecode, start, len(dst)*c.inner.Words(), 0)
}

var (
	_ pdm.BatchDisk              = tracedDisk{}
	_ pdm.SyscallCounter         = tracedDisk{}
	_ cgm.ContextSizer           = tracedProgram[int64]{}
	_ wordcodec.BulkCodec[int64] = tracedCodec[int64]{}
)
