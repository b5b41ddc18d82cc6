package pdm

import (
	"testing"
)

// plainDisk hides the BatchDisk methods of a MemDisk, forcing the array
// worker onto the single-track path: the reference schedule every
// coalesced batch must be indistinguishable from.
type plainDisk struct{ d *MemDisk }

func (p plainDisk) BlockSize() int                     { return p.d.BlockSize() }
func (p plainDisk) Tracks() int                        { return p.d.Tracks() }
func (p plainDisk) ReadTrack(t int, buf []Word) error  { return p.d.ReadTrack(t, buf) }
func (p plainDisk) WriteTrack(t int, buf []Word) error { return p.d.WriteTrack(t, buf) }
func (p plainDisk) Close() error                       { return p.d.Close() }

// FuzzBatchCoalesce drives one arbitrary split-phase op sequence through
// a batching DiskArray (MemDisk, BatchDisk visible) and a single-track
// reference (same MemDisk type, batch methods hidden) and asserts they
// are indistinguishable: identical per-op errors, identical read
// results, identical final disk contents, identical accounting.
//
// The fuzzed dimensions are exactly the worker's cut rules: direction
// changes (read/write interleave), duplicate tracks in one drained run,
// and runs longer than MaxBatchTracks; the inflight window sets how deep
// the per-disk queue gets, i.e. how much the worker can coalesce.
func FuzzBatchCoalesce(f *testing.F) {
	// One byte per op: bit 7 = read, bits 0–6 = track (mod trackSpan).
	// Seeds target each cut rule.
	cap65 := make([]byte, MaxBatchTracks+1) // distinct ascending tracks past the cap
	for i := range cap65 {
		cap65[i] = byte(i)
	}
	f.Add(byte(8), cap65)
	f.Add(byte(4), []byte{3, 3, 3, 3, 3, 3})              // duplicate-track cuts
	f.Add(byte(6), []byte{1, 0x81, 2, 0x82, 3, 0x83})     // direction change every op
	f.Add(byte(1), []byte{5, 5, 0x85, 7, 0x87, 7})        // window 1: no coalescing at all
	f.Add(byte(16), []byte{9, 0x89, 9, 0x89, 1, 2, 0x81}) // write→read→write same track

	f.Fuzz(func(t *testing.T, window byte, prog []byte) {
		const b, trackSpan = 8, 24
		if len(prog) > 512 {
			prog = prog[:512]
		}
		inflight := 1 + int(window%32)
		// MemDisk tracks are sparse until written; read back exactly the
		// written set (in-program reads of unwritten tracks error
		// identically on both arrays and are compared via errs).
		var written [trackSpan]bool
		for _, op := range prog {
			if op&0x80 == 0 {
				written[int(op&0x7f)%trackSpan] = true
			}
		}

		type opResult struct {
			read bool
			errs []error  // one per op, in program order
			got  [][]Word // read destinations, nil entries for writes
		}
		run := func(mk func() Disk) (opResult, []([]Word), IOStats) {
			disks := []Disk{mk()}
			arr, err := NewDiskArray(disks)
			if err != nil {
				t.Fatal(err)
			}
			defer arr.Close()
			res := opResult{errs: make([]error, len(prog)), got: make([][]Word, len(prog))}
			pend := make([]*Pending, 0, inflight)
			idx := make([]int, 0, inflight) // program index of each pending op
			drainOne := func() {
				res.errs[idx[0]] = pend[0].Wait()
				pend, idx = pend[1:], idx[1:]
			}
			for i, op := range prog {
				read := op&0x80 != 0
				track := int(op&0x7f) % trackSpan
				buf := make([]Word, b)
				var p *Pending
				var err error
				if read {
					res.got[i] = buf
					p, err = arr.BeginReadBlocks([]BlockReq{{Disk: 0, Track: track}}, [][]Word{buf})
				} else {
					fillWords(buf, i, track)
					p, err = arr.BeginWriteBlocks([]BlockReq{{Disk: 0, Track: track}}, [][]Word{buf})
				}
				if err != nil {
					t.Fatalf("begin op %d: %v", i, err)
				}
				pend = append(pend, p)
				idx = append(idx, i)
				if len(pend) >= inflight {
					drainOne()
				}
			}
			for len(pend) > 0 {
				drainOne()
			}
			// Final disk image, read back synchronously track by track.
			img := make([][]Word, trackSpan)
			for tk := range img {
				if !written[tk] {
					continue
				}
				img[tk] = make([]Word, b)
				if err := arr.ReadBlocks([]BlockReq{{Disk: 0, Track: tk}}, [][]Word{img[tk]}); err != nil {
					t.Fatalf("readback track %d: %v", tk, err)
				}
			}
			return res, img, arr.Stats()
		}

		batched, batchedImg, batchedStats := run(func() Disk { return NewMemDisk(b) })
		plain, plainImg, plainStats := run(func() Disk { return plainDisk{NewMemDisk(b)} })

		for i := range prog {
			if (batched.errs[i] == nil) != (plain.errs[i] == nil) {
				t.Fatalf("op %d: batched err %v, single-track err %v", i, batched.errs[i], plain.errs[i])
			}
			if !wordsEqual(batched.got[i], plain.got[i]) {
				t.Fatalf("op %d: batched read %v, single-track read %v", i, batched.got[i], plain.got[i])
			}
		}
		for tk := range batchedImg {
			if !wordsEqual(batchedImg[tk], plainImg[tk]) {
				t.Fatalf("track %d diverges: batched %v, single-track %v", tk, batchedImg[tk], plainImg[tk])
			}
		}
		// The readback loop above charges identically on both arrays, so
		// whole-stats equality still isolates the fuzzed schedule.
		if batchedStats != plainStats {
			t.Fatalf("accounting diverges: batched %+v, single-track %+v", batchedStats, plainStats)
		}
	})
}

func wordsEqual(a, b []Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
