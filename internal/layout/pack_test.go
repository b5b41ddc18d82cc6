package layout

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/pdm"
)

// logDisk is a disk that only notes what is written to it: the track and
// the first word of every block, in the order its worker served them.
type logDisk struct {
	b      int
	mu     sync.Mutex
	tracks []int
	tags   []pdm.Word
}

func (d *logDisk) WriteTrack(t int, src []pdm.Word) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tracks, d.tags = append(d.tracks, t), append(d.tags, src[0])
	return nil
}
func (d *logDisk) ReadTrack(int, []pdm.Word) error { return nil }
func (d *logDisk) BlockSize() int                  { return d.b }
func (d *logDisk) Tracks() int                     { return 0 }
func (d *logDisk) Close() error                    { return nil }

// greedyFIFO is the paper's DiskWrite rule, the one packed replaced: serve
// the queue front to back and cut a cycle at the first block whose disk the
// cycle already uses.
func greedyFIFO(reqs []pdm.BlockReq, d int) int {
	ops := 0
	for i := 0; i < len(reqs); ops++ {
		used := make([]bool, d)
		for i < len(reqs) && !used[reqs[i].Disk] {
			used[reqs[i].Disk] = true
			i++
		}
	}
	return ops
}

// busiest is the request count of the burst's busiest disk.
func busiest(reqs []pdm.BlockReq, d int) int {
	if len(reqs) == 0 {
		return 0
	}
	count := make([]int, d)
	for _, r := range reqs {
		count[r.Disk]++
	}
	return slices.Max(count)
}

// checkPacked writes the burst through packed onto logging disks and holds
// it to the packing contract: every request issued exactly once, with the
// buffer the burst paired it with; each disk served in burst order; and
// max_d(count_d) operations, which no schedule undercuts and greedy FIFO
// never beats.
func checkPacked(t *testing.T, tag string, reqs []pdm.BlockReq, d int) int {
	t.Helper()
	disks := make([]pdm.Disk, d)
	for i := range disks {
		disks[i] = &logDisk{b: 1}
	}
	arr, err := pdm.NewDiskArray(disks)
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	bufs := make([][]pdm.Word, len(reqs))
	for i := range bufs {
		bufs[i] = []pdm.Word{pdm.Word(i)}
	}
	var s Scratch
	var pend pdm.PendingSet
	ops, err := BeginWriteFIFOScratch(arr, reqs, bufs, &s, &pend)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if err := pend.Wait(); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if want := busiest(reqs, d); ops != want {
		t.Errorf("%s: %d operations, the busiest disk has %d requests", tag, ops, want)
	}
	if greedy := greedyFIFO(reqs, d); ops > greedy {
		t.Errorf("%s: %d operations, greedy FIFO needs %d", tag, ops, greedy)
	}
	if st := arr.Stats(); st.ParallelOps != int64(ops) || st.BlocksMoved != int64(len(reqs)) {
		t.Errorf("%s: the array counted %d operations moving %d blocks, want %d and %d", tag, st.ParallelOps, st.BlocksMoved, ops, len(reqs))
	}
	for k, disk := range disks {
		var tracks []int
		var tags []pdm.Word
		for i, r := range reqs {
			if r.Disk == k {
				tracks, tags = append(tracks, r.Track), append(tags, pdm.Word(i))
			}
		}
		log := disk.(*logDisk)
		if !slices.Equal(log.tracks, tracks) || !slices.Equal(log.tags, tags) {
			t.Fatalf("%s: disk %d was written tracks %v with buffers %v, the burst lists %v with %v", tag, k, log.tracks, log.tags, tracks, tags)
		}
	}
	return ops
}

// TestPackedBursts holds the packing rule on bursts of any shape — random
// addresses, then what the layouts generate for random geometries and
// random live tables (whole, partial and empty prefixes): both phases'
// inboxes and outboxes of the matrix, and the region read and the routed
// batch of the rectangle.
func TestPackedBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		d := 1 + rng.Intn(9)
		reqs := make([]pdm.BlockReq, rng.Intn(60))
		for i := range reqs {
			reqs[i] = pdm.BlockReq{Disk: rng.Intn(d) * rng.Intn(2), Track: i} // skewed towards disk 0
		}
		checkPacked(t, fmt.Sprintf("random burst %d (D=%d)", trial, d), reqs, d)
	}
	for trial := 0; trial < 60; trial++ {
		v, bpm, d := 1+rng.Intn(9), 1+rng.Intn(7), 1+rng.Intn(9)
		regions := 1 + rng.Intn(v)
		m, err := NewMatrix(v, bpm, d, rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRect(v, regions, bpm, d, rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int, v)
		for i := range live {
			live[i] = rng.Intn(bpm+1) * rng.Intn(2) // half of them empty
		}
		tag := fmt.Sprintf("trial %d (v=%d b′=%d D=%d live=%v)", trial, v, bpm, d, live)
		vp := rng.Intn(v)
		for phase := 0; phase < 2; phase++ {
			checkPacked(t, fmt.Sprintf("%s inbox phase %d", tag, phase), m.AppendInboxPrefixReqs(nil, phase, vp, live), d)
			checkPacked(t, fmt.Sprintf("%s outbox phase %d", tag, phase), m.AppendOutboxPrefixReqs(nil, phase, vp, live), d)
		}
		checkPacked(t, tag+" region", r.AppendRegionPrefixReqs(nil, rng.Intn(regions), live), d)
		var batch []pdm.BlockReq
		for dl := 0; dl < regions; dl++ {
			batch = r.AppendSlotReqs(batch, dl, vp, live[dl])
		}
		checkPacked(t, tag+" routed batch", batch, d)
	}
}

// TestStaggerFillsEveryDisk is what the unit stagger is for. v equal
// prefixes of L blocks with D | v cost exactly ⌈vL/D⌉ operations — every
// operation full — in every burst the engine issues, whatever b′ is; under
// the paper's stagger of b′ disks v one-block messages with D | b′ cost v.
// Whole slots (L = b′) cost ⌈v·b′/D⌉ then, which is what the paper's layout
// costs under greedy FIFO; where D does not divide v the last v mod D slots
// can overlap on a disk, by less than their number and than b′ mod D.
func TestStaggerFillsEveryDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ceil := func(a, b int) int { return (a + b - 1) / b }
	for trial := 0; trial < 80; trial++ {
		d, bpm := 1+rng.Intn(8), 1+rng.Intn(9)
		v := d * (1 + rng.Intn(3))
		regions := d * (1 + rng.Intn(v/d))
		m, err := NewMatrix(v, bpm, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRect(v, regions, bpm, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		L := 1 + rng.Intn(bpm)
		if trial%4 == 0 {
			L = bpm
		}
		live := make([]int, v)
		for i := range live {
			live[i] = L
		}
		vp := rng.Intn(v)
		tag := fmt.Sprintf("v=%d regions=%d b′=%d D=%d L=%d", v, regions, bpm, d, L)
		bursts := map[string][]pdm.BlockReq{
			"inbox phase 0":  m.AppendInboxPrefixReqs(nil, 0, vp, live),
			"inbox phase 1":  m.AppendInboxPrefixReqs(nil, 1, vp, live),
			"outbox phase 0": m.AppendOutboxPrefixReqs(nil, 0, vp, live),
			"outbox phase 1": m.AppendOutboxPrefixReqs(nil, 1, vp, live),
			"region":         r.AppendRegionPrefixReqs(nil, rng.Intn(regions), live),
		}
		for name, reqs := range bursts {
			if got, want := busiest(reqs, d), ceil(v*L, d); got != want {
				t.Errorf("%s %s: %d operations, want ⌈vL/D⌉ = %d", tag, name, got, want)
			}
		}
		var batch []pdm.BlockReq
		for dl := 0; dl < regions; dl++ {
			batch = r.AppendSlotReqs(batch, dl, vp, L)
		}
		if got, want := busiest(batch, d), ceil(regions*L, d); got != want {
			t.Errorf("%s routed batch: %d operations, want %d", tag, got, want)
		}
	}

	// Any v: whole slots stay within the overlap of the last v mod D slots
	// of the ⌈v·b′/D⌉ greedy FIFO paid for them, and cost exactly that much
	// where b′ ≡ 1 (mod D) — the slots' disks are the paper's there, and
	// the two rules agree on them.
	for trial := 0; trial < 80; trial++ {
		v, bpm, d := 1+rng.Intn(10), 1+rng.Intn(9), 1+rng.Intn(8)
		if trial%2 == 0 {
			bpm = 1 + d*rng.Intn(3) // ≡ 1 (mod D)
		}
		m, err := NewMatrix(v, bpm, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for phase := 0; phase < 2; phase++ {
			for name, reqs := range map[string][]pdm.BlockReq{"inbox": m.AppendInboxReqs(nil, phase, v/2), "outbox": m.AppendOutboxReqs(nil, phase, v/2)} {
				tag := fmt.Sprintf("v=%d b′=%d D=%d %s phase %d", v, bpm, d, name, phase)
				got, paper := busiest(reqs, d), ceil(v*bpm, d)
				if slack := min(v%d, bpm%d); got < paper || got > paper+slack {
					t.Errorf("%s: whole slots cost %d operations, want %d to %d", tag, got, paper, paper+slack)
				}
				if bpm%d == 1%d && (got != paper || greedyFIFO(reqs, d) != paper) {
					t.Errorf("%s: whole slots cost %d operations packed by disk and %d under greedy FIFO, want %d from both",
						tag, got, greedyFIFO(reqs, d), paper)
				}
			}
		}
	}
}
