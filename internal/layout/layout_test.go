package layout

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pdm"
)

func TestStriped(t *testing.T) {
	cases := []struct {
		g, d, base  int
		disk, track int
	}{
		{0, 4, 0, 0, 0},
		{3, 4, 0, 3, 0},
		{4, 4, 0, 0, 1},
		{9, 4, 10, 1, 12},
	}
	for _, c := range cases {
		got := Striped(c.g, c.d, c.base)
		if got.Disk != c.disk || got.Track != c.track {
			t.Errorf("Striped(%d,%d,%d) = %v, want d%d/t%d", c.g, c.d, c.base, got, c.disk, c.track)
		}
	}
}

func TestSplitBlocks(t *testing.T) {
	ws := []pdm.Word{1, 2, 3, 4, 5, 6}
	head := []pdm.Word{7}
	blocks := SplitBlocksInto([][]pdm.Word{head}, ws, 3)
	if len(blocks) != 3 || &blocks[0][0] != &head[0] || blocks[1][0] != 1 || blocks[2][2] != 6 {
		t.Fatalf("SplitBlocksInto = %v", blocks)
	}
	// views alias the input
	blocks[1][0] = 99
	if ws[0] != 99 {
		t.Error("SplitBlocksInto did not alias input")
	}
	defer func() {
		if recover() == nil {
			t.Error("SplitBlocksInto accepted a non-multiple length")
		}
	}()
	SplitBlocksInto(nil, ws[:5], 3)
}

// writeStriped writes ws, a whole number of blocks, through
// BeginWriteStripedScratch and waits the transfer.
func writeStriped(arr *pdm.DiskArray, baseTrack, startBlock int, ws []pdm.Word) error {
	var s Scratch
	var pend pdm.PendingSet
	err := BeginWriteStripedScratch(arr, baseTrack, startBlock, SplitBlocksInto(nil, ws, arr.B()), &s, &pend)
	if werr := pend.Wait(); err == nil {
		err = werr
	}
	return err
}

// readStriped reads n blocks through BeginReadStripedScratch and waits the
// transfer.
func readStriped(arr *pdm.DiskArray, baseTrack, startBlock, n int) ([]pdm.Word, error) {
	var s Scratch
	var pend pdm.PendingSet
	out := make([]pdm.Word, n*arr.B())
	err := BeginReadStripedScratch(arr, baseTrack, startBlock, SplitBlocksInto(nil, out, arr.B()), &s, &pend)
	if werr := pend.Wait(); err == nil {
		err = werr
	}
	return out, err
}

// fifo issues a burst through BeginReadFIFOScratch or
// BeginWriteFIFOScratch and waits it.
func fifo(arr *pdm.DiskArray, read bool, reqs []pdm.BlockReq, bufs [][]pdm.Word) (int, error) {
	var s Scratch
	var pend pdm.PendingSet
	begin := BeginWriteFIFOScratch
	if read {
		begin = BeginReadFIFOScratch
	}
	ops, err := begin(arr, reqs, bufs, &s, &pend)
	if werr := pend.Wait(); err == nil {
		err = werr
	}
	return ops, err
}

func TestStripedRoundTrip(t *testing.T) {
	const d, b = 3, 4
	arr := pdm.NewMemArray(d, b)
	// 7 blocks starting at global block 2, base track 5.
	data := make([]pdm.Word, 7*b)
	for i := range data {
		data[i] = pdm.Word(i + 1)
	}
	if err := writeStriped(arr, 5, 2, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readStriped(arr, 5, 2, 7)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d = %d, want %d", i, got[i], data[i])
		}
	}
	s := arr.Stats()
	wantOps := int64(2 * 3) // ceil(7/3) = 3 ops each way
	if s.ParallelOps != wantOps {
		t.Errorf("ParallelOps = %d, want %d", s.ParallelOps, wantOps)
	}
}

func TestStripedRunsDoNotOverlap(t *testing.T) {
	// Two runs in the same region at disjoint block ranges must not clash.
	const d, b = 2, 2
	arr := pdm.NewMemArray(d, b)
	run1 := []pdm.Word{1, 1, 1, 1}
	run2 := []pdm.Word{2, 2, 2, 2}
	if err := writeStriped(arr, 0, 0, run1); err != nil {
		t.Fatal(err)
	}
	if err := writeStriped(arr, 0, 2, run2); err != nil {
		t.Fatal(err)
	}
	got1, err := readStriped(arr, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := readStriped(arr, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got1[0] != 1 || got2[0] != 2 {
		t.Fatalf("runs overlapped: %v %v", got1, got2)
	}
}

func TestWriteFIFOPacksConflictFree(t *testing.T) {
	const d, b = 4, 2
	arr := pdm.NewMemArray(d, b)
	// 6 requests: disks 0,1,2,3 (one cycle) then 0,1 (second cycle).
	reqs := []pdm.BlockReq{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 3}, {Disk: 0, Track: 1}, {Disk: 1, Track: 1}}
	bufs := make([][]pdm.Word, len(reqs))
	for i := range bufs {
		bufs[i] = []pdm.Word{pdm.Word(i), pdm.Word(i)}
	}
	ops, err := fifo(arr, false, reqs, bufs)
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if ops != 2 {
		t.Errorf("ops = %d, want 2", ops)
	}
	// Each disk keeps its order: of two blocks for one disk the earlier is
	// written first, though a later block for an idle disk joins the first
	// operation.
	arr2 := pdm.NewMemArray(2, b)
	reqs2 := []pdm.BlockReq{{Disk: 0}, {Disk: 0, Track: 1}, {Disk: 1}}
	bufs2 := [][]pdm.Word{{1, 1}, {2, 2}, {3, 3}}
	ops2, err := fifo(arr2, false, reqs2, bufs2)
	if err != nil {
		t.Fatal(err)
	}
	if ops2 != 2 { // op 1: {0,0},{1,0}; op 2: {0,1}
		t.Errorf("ops2 = %d, want 2", ops2)
	}
	got := make([]pdm.Word, b)
	if err := arr2.Disk(0).ReadTrack(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Errorf("track content = %v, want [2 2]", got)
	}
}

func TestReadFIFORoundTrip(t *testing.T) {
	const d, b = 3, 2
	arr := pdm.NewMemArray(d, b)
	reqs := []pdm.BlockReq{{Disk: 0}, {Disk: 1}, {Disk: 2}, {Disk: 1, Track: 1}}
	bufs := make([][]pdm.Word, len(reqs))
	for i := range bufs {
		bufs[i] = []pdm.Word{pdm.Word(10 + i), 0}
	}
	if _, err := fifo(arr, false, reqs, bufs); err != nil {
		t.Fatal(err)
	}
	got := make([][]pdm.Word, len(reqs))
	for i := range got {
		got[i] = make([]pdm.Word, b)
	}
	ops, err := fifo(arr, true, reqs, got)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 2 {
		t.Errorf("read ops = %d, want 2", ops)
	}
	for i := range got {
		if got[i][0] != pdm.Word(10+i) {
			t.Errorf("block %d = %v", i, got[i])
		}
	}
}

func TestFIFOMismatch(t *testing.T) {
	arr := pdm.NewMemArray(2, 2)
	if _, err := fifo(arr, false, []pdm.BlockReq{{Disk: 0}}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestMatrixGeometryValidation(t *testing.T) {
	if _, err := NewMatrix(0, 1, 1, 0); err == nil {
		t.Error("v=0 accepted")
	}
	if _, err := NewMatrix(2, 0, 1, 0); err == nil {
		t.Error("bpm=0 accepted")
	}
	if _, err := NewMatrix(2, 1, 0, 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := NewMatrix(2, 1, 1, -1); err == nil {
		t.Error("negative base accepted")
	}
}

// Matrix slot addresses must be injective: distinct (region, slot, block)
// triples map to distinct (disk, track) pairs.
func TestMatrixInjective(t *testing.T) {
	for _, g := range []struct{ v, bpm, d int }{
		{4, 1, 2}, {4, 2, 3}, {5, 3, 4}, {3, 2, 8}, {8, 1, 1}, {6, 4, 4},
	} {
		m, err := NewMatrix(g.v, g.bpm, g.d, 7)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[pdm.BlockReq][3]int{}
		for r := 0; r < g.v; r++ {
			for a := 0; a < g.v; a++ {
				for q := 0; q < g.bpm; q++ {
					req := m.SlotBlock(r, a, q)
					if req.Track < 7 {
						t.Fatalf("%+v: block before base track: %v", g, req)
					}
					if req.Track >= 7+m.TotalTracks() {
						t.Fatalf("%+v: block beyond TotalTracks: %v", g, req)
					}
					if prev, dup := seen[req]; dup {
						t.Fatalf("%+v: slots %v and %v collide at %v", g, prev, [3]int{r, a, q}, req)
					}
					seen[req] = [3]int{r, a, q}
				}
			}
		}
	}
}

// The alternating placement of Observation 2 must be clobber-free: when
// VPs are processed in order and each writes its outbox into the slots its
// inbox occupied, every message of superstep s is intact when read in
// superstep s+1 — with a single copy of the matrix.
func TestMatrixAlternationDeliversMessages(t *testing.T) {
	for _, g := range []struct{ v, bpm, d, b int }{
		{4, 1, 2, 2}, {4, 2, 3, 2}, {5, 3, 4, 3}, {3, 2, 2, 4}, {7, 2, 5, 2},
	} {
		m, err := NewMatrix(g.v, g.bpm, g.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		arr := pdm.NewMemArray(g.d, g.b)
		blockWords := g.bpm * g.b

		payload := func(step, src, dst, w int) pdm.Word {
			return pdm.Word(step*1000000 + src*10000 + dst*100 + w%97)
		}
		writeOutbox := func(phase, src, step int) {
			reqs := m.AppendOutboxReqs(nil, phase, src)
			bufs := make([][]pdm.Word, 0, len(reqs))
			for dst := 0; dst < g.v; dst++ {
				msg := make([]pdm.Word, blockWords)
				for w := range msg {
					msg[w] = payload(step, src, dst, w)
				}
				bufs = SplitBlocksInto(bufs, msg, g.b)
			}
			if _, err := fifo(arr, false, reqs, bufs); err != nil {
				t.Fatalf("%+v: outbox write: %v", g, err)
			}
		}
		readInbox := func(phase, dst, step int) {
			reqs := m.AppendInboxReqs(nil, phase, dst)
			flat := make([]pdm.Word, len(reqs)*g.b)
			bufs := make([][]pdm.Word, len(reqs))
			for i := range bufs {
				bufs[i] = flat[i*g.b : (i+1)*g.b]
			}
			if _, err := fifo(arr, true, reqs, bufs); err != nil {
				t.Fatalf("%+v: inbox read: %v", g, err)
			}
			for src := 0; src < g.v; src++ {
				msg := flat[src*blockWords : (src+1)*blockWords]
				for w := range msg {
					if msg[w] != payload(step, src, dst, w) {
						t.Fatalf("%+v: step %d phase %d: msg %d→%d word %d = %d, want %d",
							g, step, phase, src, dst, w, msg[w], payload(step, src, dst, w))
					}
				}
			}
		}

		// Superstep 0 seeds the matrix (its writes land in phase-1 positions).
		for src := 0; src < g.v; src++ {
			writeOutbox(0, src, 0)
		}
		// Supersteps 1..4: read previous step's messages, write new ones,
		// alternating phases, VPs processed in order as in Algorithm 2.
		for step := 1; step <= 4; step++ {
			phase := step % 2
			for vp := 0; vp < g.v; vp++ {
				readInbox(phase, vp, step-1)
				writeOutbox(phase, vp, step)
			}
		}
		// Final check of the last step's messages.
		phase := 5 % 2
		for vp := 0; vp < g.v; vp++ {
			readInbox(phase, vp, 4)
		}
	}
}

// Inbox reads in phase 0 are one region front to back: the scheduler must
// achieve near-perfect parallelism (⌈V·BPM/D⌉ ops, +1 slack for the stagger).
func TestMatrixConsecutiveReadParallelism(t *testing.T) {
	for _, g := range []struct{ v, bpm, d int }{
		{8, 2, 4}, {16, 1, 4}, {6, 3, 2}, {9, 2, 3},
	} {
		m, err := NewMatrix(g.v, g.bpm, g.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		arr := pdm.NewMemArray(g.d, 2)
		for src := 0; src < g.v; src++ {
			reqs := m.AppendOutboxReqs(nil, 1, src) // place for phase-0 reads... (phase+1 = 0 mod 2)
			bufs := make([][]pdm.Word, len(reqs))
			for i := range bufs {
				bufs[i] = []pdm.Word{1, 1}
			}
			if _, err := fifo(arr, false, reqs, bufs); err != nil {
				t.Fatal(err)
			}
		}
		total := g.v * g.bpm
		minOps := (total + g.d - 1) / g.d
		for dst := 0; dst < g.v; dst++ {
			reqs := m.AppendInboxReqs(nil, 0, dst)
			bufs := make([][]pdm.Word, len(reqs))
			for i := range bufs {
				bufs[i] = make([]pdm.Word, 2)
			}
			ops, err := fifo(arr, true, reqs, bufs)
			if err != nil {
				t.Fatal(err)
			}
			if ops > minOps+1 {
				t.Errorf("%+v dst %d: consecutive inbox read took %d ops, want ≤ %d", g, dst, ops, minOps+1)
			}
		}
	}
}

// Property: Place is an involution across phases in the sense that a
// message written for phase p+1 is found by the phase p+1 inbox.
func TestPlaceConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(phase uint8, src8, dst8 uint8) bool {
		m := Matrix{V: 16, BPM: 2, D: 4}
		p, s, d := int(phase%2), int(src8%16), int(dst8%16)
		wr, wa := m.Place(p+1, s, d) // where the writer puts src→dst
		rr, ra := m.Place(p+1, s, d) // where the reader looks in the next phase
		return wr == rr && wa == ra && wr >= 0 && wr < 16 && wa >= 0 && wa < 16
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: random matrix geometries stay injective and in-band.
func TestMatrixInjectiveProperty(t *testing.T) {
	if err := quick.Check(func(v8, bpm8, d8 uint8) bool {
		v := int(v8)%10 + 1
		bpm := int(bpm8)%5 + 1
		d := int(d8)%8 + 1
		m, err := NewMatrix(v, bpm, d, 3)
		if err != nil {
			return false
		}
		seen := map[pdm.BlockReq]bool{}
		for r := 0; r < v; r++ {
			for a := 0; a < v; a++ {
				for q := 0; q < bpm; q++ {
					req := m.SlotBlock(r, a, q)
					if req.Track < 3 || req.Track >= 3+m.TotalTracks() || seen[req] {
						return false
					}
					seen[req] = true
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: rect geometries likewise.
func TestRectInjectiveProperty(t *testing.T) {
	if err := quick.Check(func(s8, r8, bpm8, d8 uint8) bool {
		slots := int(s8)%10 + 1
		regions := int(r8)%6 + 1
		bpm := int(bpm8)%4 + 1
		d := int(d8)%6 + 1
		m, err := NewRect(slots, regions, bpm, d, 0)
		if err != nil {
			return false
		}
		seen := map[pdm.BlockReq]bool{}
		for r := 0; r < regions; r++ {
			for a := 0; a < slots; a++ {
				for q := 0; q < bpm; q++ {
					req := m.SlotBlock(r, a, q)
					if req.Track >= m.TotalTracks() || seen[req] {
						return false
					}
					seen[req] = true
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: striped writes and reads round-trip at random offsets.
func TestStripedRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(d8, b8, n8, s8 uint8) bool {
		d := int(d8)%6 + 1
		b := int(b8)%8 + 1
		n := int(n8)%12 + 1
		start := int(s8) % 10
		arr := pdm.NewMemArray(d, b)
		data := make([]pdm.Word, n*b)
		for i := range data {
			data[i] = pdm.Word(i * 31)
		}
		if err := writeStriped(arr, 2, start, data); err != nil {
			return false
		}
		got, err := readStriped(arr, 2, start, n)
		if err != nil {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The live-prefix request sequences are the full-image ones with the tail
// of every slot cut off: a nil table gives the whole slots, a table gives
// a subsequence in the same order — no disk has more requests in it, which
// is why it never needs more operations — and SplitPrefixesInto hands out exactly the
// buffers that pair with it, so what is written through the outbox
// prefixes of one phase is what the inbox prefixes of the next read back.
func TestPrefixReqs(t *testing.T) {
	const v, bpm, d, b = 5, 3, 4, 2
	m, err := NewMatrix(v, bpm, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRect(v, 2, bpm, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	subsequence := func(sub, full []pdm.BlockReq) bool {
		i := 0
		for _, q := range full {
			if i < len(sub) && sub[i] == q {
				i++
			}
		}
		return i == len(sub)
	}
	cycles := func(reqs []pdm.BlockReq) int {
		n, err := fifo(pdm.NewMemArray(d, b), false, reqs, SplitBlocksInto(nil, make([]pdm.Word, len(reqs)*b), b))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	live := []int{2, 0, 3, 1, 0} // per slot: whole, empty and partial prefixes
	total := 2 + 0 + 3 + 1 + 0
	for phase := 0; phase < 2; phase++ {
		for vp := 0; vp < v; vp++ {
			for name, pair := range map[string][2][]pdm.BlockReq{
				"inbox":  {m.AppendInboxPrefixReqs(nil, phase, vp, live), m.AppendInboxReqs(nil, phase, vp)},
				"outbox": {m.AppendOutboxPrefixReqs(nil, phase, vp, live), m.AppendOutboxReqs(nil, phase, vp)},
			} {
				sub, full := pair[0], pair[1]
				if len(sub) != total || !subsequence(sub, full) {
					t.Fatalf("%s phase %d vp %d: %v is not the %d-block subsequence of %v", name, phase, vp, sub, total, full)
				}
				if cs, cf := cycles(sub), cycles(full); cs > cf {
					t.Errorf("%s phase %d vp %d: prefix sequence packs into %d cycles, the full one into %d", name, phase, vp, cs, cf)
				}
			}
		}
	}
	if got, want := m.AppendInboxPrefixReqs(nil, 1, 2, nil), m.AppendInboxReqs(nil, 1, 2); !slices.Equal(got, want) {
		t.Errorf("nil table: %v, want the whole inbox %v", got, want)
	}
	if sub, full := r.AppendRegionPrefixReqs(nil, 1, live), r.AppendRegionPrefixReqs(nil, 1, nil); len(sub) != total || !subsequence(sub, full) {
		t.Errorf("rect region: %v is not the %d-block subsequence of %v", sub, total, full)
	}
	if got, want := r.AppendSlotReqs(nil, 1, 3, 2), r.AppendSlotReqs(nil, 1, 3, bpm)[:2]; !slices.Equal(got, want) {
		t.Errorf("rect slot prefix: %v, want %v", got, want)
	}

	// Round trip: VP 1's outbox prefixes of phase 0, held back to back, are
	// read back, slot by slot, by the inbox prefixes of phase 1 of each
	// destination.
	arr := pdm.NewMemArray(d, b)
	flat := make([]pdm.Word, total*b)
	for i := range flat {
		flat[i] = pdm.Word(1000 + i)
	}
	if _, err := fifo(arr, false, m.AppendOutboxPrefixReqs(nil, 0, 1, live), SplitPrefixesInto(nil, flat, b, live)); err != nil {
		t.Fatal(err)
	}
	at := 0
	for dst, n := range live {
		only := make([]int, v)
		only[1] = n // the message from VP 1
		got := make([]pdm.Word, n*b)
		if _, err := fifo(arr, true, m.AppendInboxPrefixReqs(nil, 1, dst, only), SplitPrefixesInto(nil, got, b, only)); err != nil {
			t.Fatal(err)
		}
		if want := flat[at : at+n*b]; !slices.Equal(got, want) {
			t.Errorf("message 1→%d: read back %v, wrote %v", dst, got, want)
		}
		at += n * b
	}
}
