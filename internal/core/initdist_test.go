package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pdm"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// runMachine dispatches to the machine under test: RunSeq when seq, else RunPar.
func runMachine(seq bool, prog cgm.Program[int64], cfg core.Config, parts [][]int64) (*core.Result[int64], error) {
	if seq {
		return core.RunSeq[int64](prog, wordcodec.I64{}, cfg, parts)
	}
	return core.RunPar[int64](prog, wordcodec.I64{}, cfg, parts)
}

// lateDisk counts transfers that are still running when the array has
// already closed the disk: DiskArray.Close does not wait for the
// workers, so a Pending the driver returned without waiting shows up as
// a transfer finishing after Close. Not embedded, so the coalescing path
// cannot bypass the count.
type lateDisk struct {
	inner  pdm.Disk
	closed *atomic.Bool
	late   *atomic.Int64
}

func (d lateDisk) done() {
	runtime.Gosched() // widen the window in which an unwaited transfer would be caught
	if d.closed.Load() {
		d.late.Add(1)
	}
}
func (d lateDisk) ReadTrack(t int, dst []pdm.Word) error {
	defer d.done()
	return d.inner.ReadTrack(t, dst)
}
func (d lateDisk) WriteTrack(t int, src []pdm.Word) error {
	defer d.done()
	return d.inner.WriteTrack(t, src)
}
func (d lateDisk) BlockSize() int { return d.inner.BlockSize() }
func (d lateDisk) Tracks() int    { return d.inner.Tracks() }
func (d lateDisk) Close() error {
	d.closed.Store(true)
	return d.inner.Close()
}

// traceEvent is the part of a Chrome trace event these tests read. Args
// is set on spans closed with their I/O accounting (EndIO) and empty on
// spans an error path closed with a plain End.
type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Dur  float64         `json:"dur"` // µs
	Args json.RawMessage `json:"args"`
}

// traceEvents exports the recorder's Chrome trace and returns its events.
func traceEvents(t *testing.T, rec *obs.Recorder) []traceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	var out struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return out.TraceEvents
}

// waitGoroutines fails the test if the goroutine count does not return
// to base: disk workers exit asynchronously once Close has closed their
// queues, so the count is polled.
func waitGoroutines(t *testing.T, tag string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for spins := 0; runtime.NumGoroutine() > base; spins++ {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left, %d before the run", tag, runtime.NumGoroutine(), base)
		}
		if spins < 100 {
			runtime.Gosched() // the workers only need a turn to see their closed queue
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// watchedRun runs a machine on lateDisk-wrapped disks and, whatever the
// run returns, requires that nothing outlives it: no transfer finishes
// after the arrays were closed, and the goroutine count returns to what
// it was before the run. The run itself is under core.Watchdog, so one
// that wedges fails under its tag.
func watchedRun(t *testing.T, tag string, seq bool, cfg core.Config, inner func(proc, disk int) pdm.Disk, parts [][]int64) error {
	t.Helper()
	base := runtime.NumGoroutine()
	var closed atomic.Bool
	var late atomic.Int64
	cfg.NewDisk = func(proc, disk int) pdm.Disk {
		return lateDisk{inner: inner(proc, disk), closed: &closed, late: &late}
	}
	var err error
	core.Watchdog(t, tag, func() { _, err = runMachine(seq, echo{}, cfg, parts) })
	waitGoroutines(t, tag, base)
	if n := late.Load(); n != 0 {
		t.Fatalf("%s: %d transfers finished after the arrays were closed", tag, n)
	}
	return err
}

// TestInitFaultDrains drives a FaultyDisk through the write-behind input
// distribution at every operation index of every (processor, disk) pair:
// whichever of the phase's waits the fault surfaces in — a slot reuse or
// the closing drain — the run must return the injected error from the
// init phase, with every write already begun waited on every array (no
// transfer outlives Close), no goroutine left behind and the init span
// closed. A context that overflows μ mid-phase takes the same exit.
func TestInitFaultDrains(t *testing.T) {
	const (
		v, d, b = 8, 2, 8
		maxCtx  = 31 // 32 words = 4 blocks: 2 tracks per disk per context
		perDisk = 2
	)
	// Full contexts: only the live prefix of a context run is written.
	parts := cgm.Scatter(workload.Int64s(7, v*maxCtx), v)

	type machine struct {
		seq bool
		p   int
	}
	for _, m := range []machine{{true, 1}, {false, 1}, {false, 4}} {
		for _, k := range []int{1, 2, 4} {
			base := core.Config{V: v, P: m.p, D: d, B: b, MaxMsgItems: maxCtx, MaxCtxItems: maxCtx, PipelineDepth: k}
			initTracks := v / m.p * perDisk // init transfers per disk
			for fproc := 0; fproc < m.p; fproc++ {
				for fdisk := 0; fdisk < d; fdisk++ {
					for okOps := 0; okOps < initTracks; okOps++ {
						tag := fmt.Sprintf("seq=%v p=%d k=%d fault=p%d/d%d@%d", m.seq, m.p, k, fproc, fdisk, okOps)
						cfg := base
						cfg.Recorder = obs.NewRecorder()
						err := watchedRun(t, tag, m.seq, cfg, func(proc, disk int) pdm.Disk {
							if proc == fproc && disk == fdisk {
								return pdm.NewFaultyDisk(pdm.NewMemDisk(b), okOps)
							}
							return pdm.NewMemDisk(b)
						}, parts)
						if !errors.Is(err, pdm.ErrInjected) {
							t.Fatalf("%s: err = %v, want the injected fault", tag, err)
						}
						if !strings.Contains(err.Error(), "input distribution") {
							t.Fatalf("%s: err = %v, want it reported by the init phase", tag, err)
						}
						closedInit := false
						for _, e := range traceEvents(t, cfg.Recorder) {
							closedInit = closedInit || e.Cat == "init"
						}
						if !closedInit {
							t.Fatalf("%s: init span not closed on the error path", tag)
						}
					}
				}
			}

			// Encode failure with writes in flight: VP v−1's context overflows μ.
			tag := fmt.Sprintf("seq=%v p=%d k=%d overflow", m.seq, m.p, k)
			big := append([][]int64(nil), parts...)
			big[v-1] = workload.Int64s(9, maxCtx+1)
			err := watchedRun(t, tag, m.seq, base, func(proc, disk int) pdm.Disk { return pdm.NewMemDisk(b) }, big)
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("%s: err = %v, want the context bound error", tag, err)
			}
		}
	}
}

// initGate is a counting BatchDisk for TestInitCoalesces. While the disk
// has seen no read it is in the input distribution (per-disk FIFO: every
// init write precedes round 0's first read), and each write call is held
// until the driver has queued all it can: the call's lowest track belongs
// to VP j0, whose slot the driver cannot reuse, so it runs on to
// Init(j0+K) and blocks in that slot's wait with VPs j0 … j0+K−1 queued.
// Holding calls this way makes the device slower than the driver at
// every step, deterministically, which is the regime coalescing is for.
type initGate struct {
	inner *pdm.MemDisk
	k, v  int
	c     int // tracks per context on this disk
	inits *initCount

	mu                       sync.Mutex
	reads, calls, tracksSeen int
}

// initCount counts prog.Init calls and wakes the gates.
type initCount struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

func (ic *initCount) awaitAtLeast(n int) {
	ic.mu.Lock()
	for ic.n < n {
		ic.cond.Wait()
	}
	ic.mu.Unlock()
}

func (g *initGate) write(lowest, n int) {
	g.mu.Lock()
	init := g.reads == 0
	if init {
		g.calls++
		g.tracksSeen += n
	}
	g.mu.Unlock()
	if init {
		g.inits.awaitAtLeast(min(g.v, lowest/g.c+g.k+1))
	}
}
func (g *initGate) read() {
	g.mu.Lock()
	g.reads++
	g.mu.Unlock()
}
func (g *initGate) WriteTrack(t int, src []pdm.Word) error {
	g.write(t, 1)
	return g.inner.WriteTrack(t, src)
}
func (g *initGate) WriteTracks(tracks []int, bufs [][]pdm.Word) error {
	g.write(tracks[0], len(tracks))
	return g.inner.WriteTracks(tracks, bufs)
}
func (g *initGate) ReadTrack(t int, dst []pdm.Word) error {
	g.read()
	return g.inner.ReadTrack(t, dst)
}
func (g *initGate) ReadTracks(tracks []int, bufs [][]pdm.Word) error {
	g.read()
	return g.inner.ReadTracks(tracks, bufs)
}
func (g *initGate) BlockSize() int { return g.inner.BlockSize() }
func (g *initGate) Tracks() int    { return g.inner.Tracks() }
func (g *initGate) Close() error   { return g.inner.Close() }

// countedEcho is echo with Init reported to the gates.
type countedEcho struct {
	echo
	inits *initCount
}

func (p countedEcho) Init(vp *cgm.VP[int64], input []int64) {
	p.echo.Init(vp, input)
	p.inits.mu.Lock()
	p.inits.n++
	p.inits.cond.Broadcast()
	p.inits.mu.Unlock()
}

// TestInitCoalesces is the mechanism test of the write-behind input
// distribution, on an exact count: V contexts that fill their runs of c_b
// blocks (only the live prefix of a run is written, and a shorter one
// would leave a gap) put T = V·c_b/D adjacent tracks on each disk, and against a device that is
// never faster than the driver (initGate) the phase must reach each disk
// in at most
//
//	⌊T/64⌋ + 2·⌈V/K⌉ + c_b/D + 2
//
// calls instead of T. The terms: full 64-track batches; two short calls
// per turn of the K-context window (an idle worker takes the first track
// of a refill before the rest is queued, then the remainder in one call —
// after any two short calls the K contexts from the first one's lowest VP
// are on disk); and the last context, which nothing holds back.
func TestInitCoalesces(t *testing.T) {
	const (
		v, d, b = 32, 2, 8
		maxCtx  = 63 // 64 words = 8 blocks: c = 4 tracks per disk per context
		c       = 4
		total   = v * c // T
	)
	parts := cgm.Scatter(workload.Int64s(5, maxCtx*v), v)
	for _, k := range []int{1, 2, 8} {
		inits := &initCount{}
		inits.cond = sync.NewCond(&inits.mu)
		gates := make([]*initGate, d)
		cfg := core.Config{V: v, P: 1, D: d, B: b, MaxMsgItems: maxCtx, MaxCtxItems: maxCtx, PipelineDepth: k,
			NewDisk: func(proc, disk int) pdm.Disk {
				gates[disk] = &initGate{inner: pdm.NewMemDisk(b), k: k, v: v, c: c, inits: inits}
				return gates[disk]
			}}
		res, err := core.RunSeq[int64](countedEcho{inits: inits}, wordcodec.I64{}, cfg, parts)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Depth != k {
			t.Fatalf("k=%d: ring depth %d", k, res.Depth)
		}
		bound := total/pdm.MaxBatchTracks + 2*((v+k-1)/k) + c + 2
		for i, g := range gates {
			if g.tracksSeen != total {
				t.Errorf("k=%d disk %d: %d init tracks, want %d", k, i, g.tracksSeen, total)
			}
			if g.calls > bound {
				t.Errorf("k=%d disk %d: input distribution took %d calls for %d tracks, want ≤ %d", k, i, g.calls, total, bound)
			}
			t.Logf("k=%d disk %d: %d calls for %d tracks (bound %d)", k, i, g.calls, total, bound)
		}
	}
}

// TestInitCheckedEquivalence runs the write-behind input distribution
// under CheckedIO — read-before-write validation on, use-after-begin
// poison armed on every loaned context image — at each ring depth:
// outputs and the full accounting must equal depth 1's, where every
// context write is waited before the next VP is initialised (and each
// arm must match the in-memory runtime and reconcile its ledger; see
// depthArms).
func TestInitCheckedEquivalence(t *testing.T) {
	const v, n = 8, 1 << 9
	parts := cgm.Scatter(workload.Int64s(3, n), v)
	want := reference[int64](t, "echo", echo{}, v, parts)
	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 4}} {
		base := core.Config{V: v, P: m.p, D: 2, B: 8, MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4, CheckedIO: true}
		depthArms(t, fmt.Sprintf("checked seq=%v p=%d", m.seq, m.p), want, base, []int{2, 8},
			func(cfg core.Config) (*core.Result[int64], error) { return runMachine(m.seq, echo{}, cfg, parts) })
	}
}

// TestInitStallRecorded pins the observability contract of the phase:
// under a Recorder the time blocked in its waits is stored as `stall init`
// spans in the wait category and is part of Result.Stall and the stall
// counter, while the init row itself (CtxOps, Blocks) is the synchronous
// schedule's (PipelineDepth 1); without a Recorder nothing is timed.
func TestInitStallRecorded(t *testing.T) {
	const v, n, b = 4, 64, 8
	parts := cgm.Scatter(workload.Int64s(3, n), v)
	slow := func(proc, disk int) pdm.Disk { return pdm.NewDelayDisk(pdm.NewMemDisk(b), 200*time.Microsecond) }

	for _, m := range []struct {
		seq     bool
		p       int
		counter string
	}{{true, 1, "core_p0_stall_ns"}, {false, 2, "core_stall_ns"}} {
		initRow := func(depth int, newDisk func(proc, disk int) pdm.Disk) (obs.SuperstepIO, *core.Result[int64], *obs.Recorder) {
			rec := obs.NewRecorder()
			cfg := core.Config{V: v, P: m.p, D: 2, B: b, MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4,
				PipelineDepth: depth, Recorder: rec, NewDisk: newDisk}
			res, err := runMachine(m.seq, echo{}, cfg, parts)
			if err != nil {
				t.Fatalf("seq=%v depth=%d: %v", m.seq, depth, err)
			}
			for _, s := range rec.Supersteps() {
				if s.Label == "init" {
					return s, res, rec
				}
			}
			t.Fatalf("seq=%v depth=%d: no init row", m.seq, depth)
			panic("unreachable")
		}
		want, _, _ := initRow(1, nil)
		got, res, rec := initRow(0, slow)
		if got.CtxOps != want.CtxOps || got.MsgOps != want.MsgOps || got.Blocks != want.Blocks || got.Proc != want.Proc {
			t.Errorf("seq=%v: init row %+v, want the synchronous schedule's %+v", m.seq, got, want)
		}
		var initStall float64 // µs
		for _, e := range traceEvents(t, rec) {
			if e.Name == "stall init" {
				if e.Cat != "wait" {
					t.Errorf("seq=%v: stall init span in category %q, want wait", m.seq, e.Cat)
				}
				initStall += e.Dur
			}
		}
		if initStall <= 0 {
			t.Errorf("seq=%v: no time recorded in stall init spans on a 200µs disk", m.seq)
		}
		if us := float64(res.Stall.Microseconds()); us < initStall-1 {
			t.Errorf("seq=%v: Result.Stall = %.0fµs, below the init phase's own %.0fµs", m.seq, us, initStall)
		}
		if c := rec.Counter(m.counter).Value(); c != res.Stall.Nanoseconds() {
			t.Errorf("seq=%v: %s = %d, want Result.Stall = %d", m.seq, m.counter, c, res.Stall.Nanoseconds())
		}

		cfg := core.Config{V: v, P: m.p, D: 2, B: b, MaxMsgItems: n/v + 4, MaxCtxItems: n/v + 4, NewDisk: slow}
		plain, err := runMachine(m.seq, echo{}, cfg, parts)
		if err != nil {
			t.Fatalf("seq=%v unrecorded: %v", m.seq, err)
		}
		if plain.Stall != 0 {
			t.Errorf("seq=%v: unrecorded run reports Stall = %v", m.seq, plain.Stall)
		}
	}
}
