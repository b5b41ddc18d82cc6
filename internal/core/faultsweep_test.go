package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/layout"
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
// already closed the disk. DiskArray.Close waits for its workers to serve
// what is queued before it closes a disk, so the count holds that
// contract for every exit of the run: a transfer finishing after Close
// is a worker that outlived it. Not embedded, so the coalescing path
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
// to base. Close has waited for the disk workers and the run for its
// compute workers, but a goroutine that has signalled its exit may still
// be returning, so the count is polled.
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

// watchedProg runs prog on a machine on lateDisk-wrapped disks and,
// whatever the run returns, requires that nothing outlives it: no
// transfer finishes after the arrays closed their disks, and the
// goroutine count returns to what it was before the run. The run itself
// is under core.Watchdog, so one that wedges fails under its tag.
func watchedProg(t *testing.T, tag string, seq bool, prog cgm.Program[int64], cfg core.Config, inner func(proc, disk int) pdm.Disk, parts [][]int64) error {
	t.Helper()
	base := runtime.NumGoroutine()
	var closed atomic.Bool
	var late atomic.Int64
	cfg.NewDisk = func(proc, disk int) pdm.Disk {
		return lateDisk{inner: inner(proc, disk), closed: &closed, late: &late}
	}
	var err error
	core.Watchdog(t, tag, func() { _, err = runMachine(seq, prog, cfg, parts) })
	waitGoroutines(t, tag, base)
	if n := late.Load(); n != 0 {
		t.Fatalf("%s: %d transfers finished after the arrays were closed", tag, n)
	}
	return err
}

// countDisk counts the track transfers a disk serves. Embedding the
// interface hides any batch methods of the inner disk, so every transfer
// is one call — the unit a FaultyDisk's budget is spent in.
type countDisk struct {
	pdm.Disk
	n *atomic.Int64
}

func (d countDisk) ReadTrack(t int, dst []pdm.Word) error {
	d.n.Add(1)
	return d.Disk.ReadTrack(t, dst)
}
func (d countDisk) WriteTrack(t int, src []pdm.Word) error {
	d.n.Add(1)
	return d.Disk.WriteTrack(t, src)
}

// blipDisk fails the one transfer that follows ok successful ones and
// serves every other: no later transfer repeats the fault, so only the
// wait that owns the failed transfer can report it.
type blipDisk struct {
	pdm.Disk
	ok   int64
	seen *atomic.Int64
}

func (d blipDisk) take() error {
	if d.seen.Add(1)-1 == d.ok {
		return pdm.ErrInjected
	}
	return nil
}
func (d blipDisk) ReadTrack(t int, dst []pdm.Word) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.Disk.ReadTrack(t, dst)
}
func (d blipDisk) WriteTrack(t int, src []pdm.Word) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.Disk.WriteTrack(t, src)
}

// failLog records the tracks of the transfers a faulted disk failed.
type failLog struct {
	mu     sync.Mutex
	tracks []int
}

// wrap returns d logging its failed transfers into l. Embedding the
// interface hides any batch methods, as the faulty disks have none.
func (l *failLog) wrap(d pdm.Disk) pdm.Disk { return failDisk{d, l} }

func (l *failLog) failed() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.tracks)
}

type failDisk struct {
	pdm.Disk
	log *failLog
}

func (d failDisk) note(t int, err error) error {
	if err != nil {
		d.log.mu.Lock()
		d.log.tracks = append(d.log.tracks, t)
		d.log.mu.Unlock()
	}
	return err
}
func (d failDisk) ReadTrack(t int, dst []pdm.Word) error {
	return d.note(t, d.Disk.ReadTrack(t, dst))
}
func (d failDisk) WriteTrack(t int, src []pdm.Word) error {
	return d.note(t, d.Disk.WriteTrack(t, src))
}

// diskMap says which VP's transfer in a round uses a track of one disk of
// real processor proc, by the engine's disk map (DESIGN.md §12): the v/p
// context runs of cb striped blocks from track 0, run pos the context of
// the VP at commit position pos (ctxRun), then RunSeq's matrix or RunPar's
// two rects, each with slots of bpm blocks.
type diskMap struct {
	localV, proc, d, cb int
	ctxTracks           int
	order               []int // commitOrder's: the local VP at each position
	// owners[parity][(disk, track)] is the global VP whose transfer uses a
	// message block in a round of that parity, or −1 for a route write.
	owners [2]map[[2]int]int
}

// newDiskMap maps processor proc's message blocks to their owners. Under
// Observation 2 VP j reads region j and writes the slots it freed in even
// rounds, and slot j of every region in odd ones. Under Algorithm 3 VP j
// reads its region of the rect of the round's parity, and writes slot j of
// every region of the other one; a slot of another processor's VP is a
// route write.
func newDiskMap(seq bool, v, p, proc, d, cb, bpm int) diskMap {
	localV := v / p
	m := diskMap{localV: localV, proc: proc, d: d, cb: cb, ctxTracks: (localV*cb+d-1)/d + 1,
		owners: [2]map[[2]int]int{{}, {}}}
	m.order, _ = core.CommitOrder(v, p, d, proc)
	slots := func(regions int, at func(r, a, q int) pdm.BlockReq, owners func(r, a int) (even, odd int)) {
		for r := range regions {
			for a := range v {
				for q := range bpm {
					b := at(r, a, q)
					key := [2]int{b.Disk, b.Track}
					m.owners[0][key], m.owners[1][key] = owners(r, a)
				}
			}
		}
	}
	if seq {
		mx := layout.Matrix{V: v, BPM: bpm, D: d, BaseTrack: m.ctxTracks}
		slots(v, mx.SlotBlock, func(r, a int) (int, int) { return r, a })
		return m
	}
	writer := func(a int) int {
		if a/localV == proc {
			return a
		}
		return -1
	}
	r0 := layout.Rect{Slots: v, Regions: localV, BPM: bpm, D: d, BaseTrack: m.ctxTracks}
	r1 := r0
	r1.BaseTrack += r0.TotalTracks()
	slots(localV, r0.SlotBlock, func(r, a int) (int, int) { return proc*localV + r, writer(a) })
	slots(localV, r1.SlotBlock, func(r, a int) (int, int) { return writer(a), proc*localV + r })
	return m
}

// owner is the global VP whose reads or writes in round use track t of
// disk dk, or −1 for a route write. A context run is the VP's at its
// position.
func (m diskMap) owner(round, dk, t int) int {
	if t < m.ctxTracks {
		return m.proc*m.localV + m.order[(t*m.d+dk)/m.cb]
	}
	return m.owners[round%2][[2]int{dk, t}]
}

var namedVP = regexp.MustCompile(`round (\d+) vp (\d+):`)

// checkNamedVP requires the VP an error names, if it names one, to own a
// transfer of the round it names that the faulted disk failed.
func checkNamedVP(t *testing.T, tag string, err error, m diskMap, dk int, failed []int) {
	t.Helper()
	sub := namedVP.FindStringSubmatch(err.Error())
	if sub == nil {
		return // the round epilogue or the route phase: no VP is named
	}
	round, _ := strconv.Atoi(sub[1])
	vp, _ := strconv.Atoi(sub[2])
	var owners []int
	for _, tr := range failed {
		owners = append(owners, m.owner(round, dk, tr))
	}
	if !slices.Contains(owners, vp) {
		t.Fatalf("%s: err = %v names vp %d, but the failed transfers (tracks %v of disk %d) are those of vps %v",
			tag, err, vp, failed, dk, owners)
	}
}

// TestRunFaultDrains drives a FaultyDisk through every per-disk transfer
// index of a small four-round run — the first write of every context
// (round 0 is the input distribution), prologue bursts, window slides,
// write-behind, epilogue drains and the route phase alike — for every
// machine, ring depth and (processor, disk) pair. Whichever wait the
// fault surfaces in, the run must return the injected error with nothing
// left behind: no transfer finishes after Close, the goroutines return to
// baseline (watchedRun), and every span that was begun is closed —
// exactly one superstep or route span closed without its I/O row when the
// fault interrupted one. Runs alternate between recorded and unrecorded,
// so both wait paths are swept, and, two indices at a time, between a
// FaultyDisk, which fails every transfer from the index on, and a
// blipDisk, which fails that one transfer alone. Under a blipDisk no later
// transfer reports the fault, so a wait that dropped its error lets the
// run go on past the failed transfer, to success or to another error. A
// context that Init leaves over μ with writes in flight takes the same
// exit. The VP an error names must own a transfer the disk failed: the
// VP whose reads it waited for, or whose writes its slot held (a lead VP
// included, whose writes its partner's commit began). The sweep runs at
// GOMAXPROCS 1, 2
// and 8, so every machine is swept with one VP computing at a time (c = 1)
// and with several (c ≥ 2 at every K ≥ 2), when a fault can land while
// later VPs are still computing.
func TestRunFaultDrains(t *testing.T) {
	for _, g := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", g), func(t *testing.T) { core.AtProcs(g, func() { faultDrains(t) }) })
	}
}

func faultDrains(t *testing.T) {
	const (
		v, d, b = 8, 2, 8
		maxCtx  = 15   // 16 words = 2 blocks: one track per disk per context
		maxMsg  = 15   // echo sends its whole context to one VP; its other messages are empty and move nothing
		cb, bpm = 2, 2 // blocks of a context run and of a message slot
	)
	// Full contexts, so both disks are in every context transfer.
	parts := cgm.Scatter(workload.Int64s(7, v*maxCtx), v)
	mem := func(proc, disk int) pdm.Disk { return pdm.NewMemDisk(b) }
	prog := sized[int64]{echo{}, maxCtx}

	for _, m := range []struct {
		seq bool
		p   int
	}{{true, 1}, {false, 1}, {false, 4}} {
		for _, k := range []int{1, 2, 4} {
			base := core.Config{V: v, P: m.p, D: d, B: b, MaxMsgItems: maxMsg, PipelineDepth: k}

			// A fault-free run counts the transfers each disk serves.
			counts := make([]atomic.Int64, m.p*d)
			err := watchedProg(t, fmt.Sprintf("seq=%v p=%d k=%d fault-free", m.seq, m.p, k), m.seq, prog, base,
				func(proc, disk int) pdm.Disk { return countDisk{mem(proc, disk), &counts[proc*d+disk]} }, parts)
			if err != nil {
				t.Fatalf("seq=%v p=%d k=%d fault-free: %v", m.seq, m.p, k, err)
			}

			for fproc := 0; fproc < m.p; fproc++ {
				for fdisk := 0; fdisk < d; fdisk++ {
					total := int(counts[fproc*d+fdisk].Load())
					if total < 2*v/m.p {
						t.Fatalf("seq=%v p=%d k=%d: disk p%d/d%d served only %d transfers", m.seq, m.p, k, fproc, fdisk, total)
					}
					for okOps := 0; okOps < total; okOps++ {
						tag := fmt.Sprintf("seq=%v p=%d k=%d fault=p%d/d%d@%d/%d", m.seq, m.p, k, fproc, fdisk, okOps, total)
						cfg := base
						if okOps%2 == 0 {
							cfg.Recorder = obs.NewRecorder()
						}
						blip := okOps%4 >= 2
						if blip {
							tag += " blip"
						}
						var seen atomic.Int64
						var fails failLog
						err := watchedProg(t, tag, m.seq, prog, cfg, func(proc, disk int) pdm.Disk {
							switch {
							case proc != fproc || disk != fdisk:
								return mem(proc, disk)
							case blip:
								return fails.wrap(blipDisk{mem(proc, disk), int64(okOps), &seen})
							}
							return fails.wrap(pdm.NewFaultyDisk(mem(proc, disk), okOps))
						}, parts)
						if !errors.Is(err, pdm.ErrInjected) {
							t.Fatalf("%s: err = %v, want the injected fault", tag, err)
						}
						checkNamedVP(t, tag, err, newDiskMap(m.seq, v, m.p, fproc, d, cb, bpm), fdisk, fails.failed())
						if cfg.Recorder != nil {
							checkSpansClosed(t, tag, cfg.Recorder, err)
						}
					}
				}
			}

			// VP v−1's Init overflows μ while its neighbours' first writes drain.
			tag := fmt.Sprintf("seq=%v p=%d k=%d overflow", m.seq, m.p, k)
			big := append([][]int64(nil), parts...)
			big[v-1] = workload.Int64s(9, maxCtx+1)
			cfg := base
			cfg.Recorder = obs.NewRecorder()
			err = watchedProg(t, tag, m.seq, prog, cfg, mem, big)
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("%s: err = %v, want the context bound error", tag, err)
			}
			checkSpansClosed(t, tag, cfg.Recorder, err)
		}
	}
}

// checkSpansClosed requires the trace of a run that failed with err to
// hold the closed span of every unit the fault can have interrupted. A
// span closed on an error path carries no I/O row (End, not EndIO), which
// is how the interrupted unit is told from the completed ones.
func checkSpansClosed(t *testing.T, tag string, rec *obs.Recorder, err error) {
	t.Helper()
	var cutSuperstep, cutRoute int
	for _, e := range traceEvents(t, rec) {
		switch {
		case e.Cat == "superstep" && len(e.Args) == 0:
			cutSuperstep++
		case e.Cat == "route" && len(e.Args) == 0:
			cutRoute++
		}
	}
	msg := err.Error()
	wantSuperstep, wantRoute := 0, 0
	switch {
	case strings.Contains(msg, " vp "):
		wantSuperstep = 1 // a wait inside local VP's superstep
	case strings.Contains(msg, "write batch"):
		wantRoute = 1
	case strings.Contains(msg, "write back"): // the round epilogue: no unit is open
	default:
		t.Fatalf("%s: err = %v names no phase of the round", tag, err)
	}
	if cutSuperstep != wantSuperstep || cutRoute != wantRoute {
		t.Fatalf("%s: err = %v: %d interrupted superstep and %d interrupted route spans closed, want %d and %d",
			tag, err, cutSuperstep, cutRoute, wantSuperstep, wantRoute)
	}
}

// sizedDisk reports a block size of its own and counts its Close.
type sizedDisk struct {
	pdm.Disk
	bs     int
	closed *atomic.Int64
}

func (d sizedDisk) BlockSize() int { return d.bs }
func (d sizedDisk) Close() error {
	d.closed.Add(1)
	return d.Disk.Close()
}

// TestSetupFailureClosesDisks fails the set-up of one processor's array
// — its disks disagree on the block size, which pdm.NewDiskArrayOpts
// rejects — and requires the run to return that error with every disk
// that was constructed closed exactly once: the rejected processor's own
// (the array never took them over) and those of the arrays already built
// for the processors before it, whose workers must exit too.
func TestSetupFailureClosesDisks(t *testing.T) {
	const v, d, b = 8, 2, 8
	parts := cgm.Scatter(workload.Int64s(7, 64), v)
	for _, m := range []struct {
		seq      bool
		p, fproc int
	}{{true, 1, 0}, {false, 1, 0}, {false, 4, 1}, {false, 4, 3}} {
		tag := fmt.Sprintf("seq=%v p=%d bad=p%d", m.seq, m.p, m.fproc)
		base := runtime.NumGoroutine()
		var built, closed atomic.Int64
		cfg := core.Config{V: v, P: m.p, D: d, B: b, MaxMsgItems: 16,
			NewDisk: func(proc, disk int) pdm.Disk {
				built.Add(1)
				bs := b
				if proc == m.fproc {
					bs = b + disk // the processor's disks disagree
				}
				return sizedDisk{pdm.NewMemDisk(bs), bs, &closed}
			}}
		_, err := runMachine(m.seq, sized[int64]{echo{}, 31}, cfg, parts)
		if err == nil || !strings.Contains(err.Error(), "block size") {
			t.Fatalf("%s: err = %v, want the array's block-size rejection", tag, err)
		}
		if want := int64((m.fproc + 1) * d); built.Load() != want || closed.Load() != want {
			t.Errorf("%s: %d disks constructed, %d closed, want %d of each", tag, built.Load(), closed.Load(), want)
		}
		waitGoroutines(t, tag, base)
	}
}
