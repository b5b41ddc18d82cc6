package pdm

import (
	"errors"
	"fmt"
)

// Checked mode is a runtime sanitizer: it validates what each parallel
// I/O operation *does* against the layout discipline of Algorithm 2 —
// analogous to MSan for the parallel disk model. It is a debugging tool: validation allocates and
// is deliberately kept off the production hot path (the disabled state
// costs one nil check per operation, mirroring the observability
// contract).
//
// Violation classes, each with its own sentinel:
//
//   - ErrCheckBounds: a request addresses a negative track or a disk
//     outside [0, D);
//   - ErrCheckOverlap: two requests of one parallel operation address the
//     same (disk, track) block — for writes, silent last-writer-wins
//     corruption; for reads, a wasted slot the layouts never produce;
//   - ErrCheckUninitRead: a read of a block no prior operation wrote,
//     or one discarded since its last write — the PDM analogue of
//     reading uninitialised memory;
//   - ErrCheckUseAfterBegin: a write buffer was modified between
//     BeginWriteBlocks and Wait — the check that holds the loaned-buffer
//     contract: in checked mode the workers write from a private snapshot
//     while the caller's buffers are poison-filled, so any caller-side
//     store in the loan window destroys the sentinel and is detected at
//     Wait (the original contents are restored either way, keeping
//     checked runs bit-identical to unchecked ones).
var (
	ErrCheckBounds        = errors.New("pdm: checked: block address out of bounds")
	ErrCheckOverlap       = errors.New("pdm: checked: overlapping blocks in one parallel op")
	ErrCheckUninitRead    = errors.New("pdm: checked: read of never-written block")
	ErrCheckUseAfterBegin = errors.New("pdm: checked: write buffer modified between Begin and Wait")
)

// poisonWord is the in-flight sentinel checked mode pours over loaned
// buffers. A caller-side store of exactly this value escapes detection —
// the usual sentinel-pattern caveat.
const poisonWord Word = 0xDEAD_BEEF_FEED_FACE

// blockAddr identifies one block for the written-set.
type blockAddr struct{ disk, track int }

// checker is the per-array sanitizer state. Guarded by the array's opMu.
type checker struct {
	d       int
	written map[blockAddr]struct{}
}

// EnableChecked switches the array into checked mode: every subsequent
// ReadBlocks/WriteBlocks call is validated before it touches a disk, and
// failed validation rejects the whole operation without performing any
// I/O (or counting it). The written-block set starts empty: blocks
// written before EnableChecked count as uninitialised.
//
// Checked mode is for tests and debugging runs; it allocates per
// operation and serialises no differently than normal mode (opMu already
// serialises operations).
func (a *DiskArray) EnableChecked() {
	a.opMu.Lock()
	defer a.opMu.Unlock()
	a.check = &checker{d: len(a.disks), written: map[blockAddr]struct{}{}}
}

// validate checks one parallel operation's requests. Called with opMu
// held, before the one-track-per-disk check, so each violation class
// reports its own sentinel rather than degenerating into ErrDiskConflict.
func (c *checker) validate(reqs []BlockReq, read bool) error {
	for i, r := range reqs {
		if r.Disk < 0 || r.Disk >= c.d {
			return fmt.Errorf("%w: request %d addresses disk %d, array has D=%d",
				ErrCheckBounds, i, r.Disk, c.d)
		}
		if r.Track < 0 {
			return fmt.Errorf("%w: request %d addresses negative track %d",
				ErrCheckBounds, i, r.Track)
		}
	}
	seen := make(map[blockAddr]int, len(reqs))
	for i, r := range reqs {
		addr := blockAddr{r.Disk, r.Track}
		if j, dup := seen[addr]; dup {
			kind := "reads"
			if !read {
				kind = "writes last-writer-wins"
			}
			return fmt.Errorf("%w: requests %d and %d both address disk %d track %d (%s)",
				ErrCheckOverlap, j, i, r.Disk, r.Track, kind)
		}
		seen[addr] = i
	}
	if read {
		for i, r := range reqs {
			if _, ok := c.written[blockAddr{r.Disk, r.Track}]; !ok {
				return fmt.Errorf("%w: request %d reads disk %d track %d before any write",
					ErrCheckUninitRead, i, r.Disk, r.Track)
			}
		}
	}
	return nil
}

// commit records a successful operation's effects: written blocks become
// initialised. Called with opMu held, after the transfers succeed.
func (c *checker) commit(reqs []BlockReq, read bool) {
	if read {
		return
	}
	for _, r := range reqs {
		c.written[blockAddr{r.Disk, r.Track}] = struct{}{}
	}
}

// discard records a DiskArray.Discard: the blocks are uninitialised
// again. Called with opMu held.
func (c *checker) discard(reqs []BlockReq) {
	for _, r := range reqs {
		delete(c.written, blockAddr{r.Disk, r.Track})
	}
}

// pendingPoison is the loan record of one checked-mode split-phase
// write: saved holds private snapshots of the caller's buffers (what
// the workers actually write to disk) while the buffers themselves are
// poison-filled until Wait verifies and restores them.
type pendingPoison struct {
	bufs  [][]Word // the loaned buffers (headers copied: only the data is on loan)
	saved [][]Word // original contents, dispatched to the workers
}

// loanWrite snapshots each write buffer and poison-fills the original.
// Called with opMu held, before dispatch, so the workers only ever see
// the stable snapshots.
func (c *checker) loanWrite(bufs [][]Word) *pendingPoison {
	// Copy the slice headers: the loan covers the buffer *data*, not the
	// caller's outer slice, which drivers legitimately recycle (e.g.
	// SplitBlocksInto(s.bufs[:0], ...)) while the write is in flight.
	lent := make([][]Word, len(bufs))
	copy(lent, bufs)
	bufs = lent
	saved := make([][]Word, len(bufs))
	for i, b := range bufs {
		cp := make([]Word, len(b))
		copy(cp, b)
		saved[i] = cp
	}
	// Poison only after every snapshot is taken, so aliased buffers (one
	// slice backing several requests) snapshot real data, not poison.
	for _, b := range bufs {
		for j := range b {
			b[j] = poisonWord
		}
	}
	return &pendingPoison{bufs: bufs, saved: saved}
}

// poisonRead poison-fills read destinations at begin time: the worker
// overwrites them with real data before Wait returns, so a caller that
// consumes the buffer early reads deterministic garbage instead of
// whatever the previous superstep left there.
func (c *checker) poisonRead(bufs [][]Word) {
	for _, b := range bufs {
		for j := range b {
			b[j] = poisonWord
		}
	}
}

// verifyAndRestore checks every loaned word still carries the sentinel,
// then restores the original contents. Returns ErrCheckUseAfterBegin
// (first tampered location) when the loan was violated.
func (pp *pendingPoison) verifyAndRestore() error {
	var first error
	for i, b := range pp.bufs {
		if first == nil {
			for j, w := range b {
				if w != poisonWord {
					first = fmt.Errorf("%w: buffer %d word %d overwritten in flight (got %#x)",
						ErrCheckUseAfterBegin, i, j, w)
					break
				}
			}
		}
		copy(b, pp.saved[i])
	}
	return first
}
