package pdm

import (
	"sync"
)

// Disk is a track-addressed block store. Every track holds exactly one
// block of B words. Tracks are created on first write; reading a track
// that was never written, or was discarded (Discarder), returns
// ErrTrackOutOfRange.
//
// Implementations must be safe for concurrent use on *distinct* tracks
// (the DiskArray runs one persistent worker goroutine per disk, and
// layouts never address the same disk twice within one parallel
// operation).
type Disk interface {
	// ReadTrack copies track t into dst, which must have length B.
	ReadTrack(t int, dst []Word) error
	// WriteTrack stores src (length B) as track t, allocating as needed.
	WriteTrack(t int, src []Word) error
	// BlockSize returns B, the words per track.
	BlockSize() int
	// Tracks returns the number of allocated tracks (highest written + 1).
	Tracks() int
	// Close releases resources. A closed disk rejects all I/O.
	Close() error
}

// Discarder is the optional capability of a Disk that can drop tracks
// whose contents are dead — the PDM analogue of TRIM. A discard moves no
// data: it is no transfer, no counted parallel I/O and no modelled time.
// Reading a discarded track returns ErrTrackOutOfRange, as if it had
// never been written; Tracks() does not change. The caller guarantees no
// transfer of the discarded tracks is in flight. MemDisk implements it,
// and DelayDisk forwards it. FileDisk does not: its tracks are file space,
// not heap, and punching holes would put a syscall under every discard.
type Discarder interface {
	// Discard drops the given tracks; tracks never written are ignored.
	Discard(tracks []int)
}

// trackChunk is how many tracks one chunk of MemDisk's track table
// covers. A chunk is allocated when a track in it is first written, so
// the table follows the tracks written, not the highest one.
const trackChunk = 256

// MemDisk is an in-memory Disk. The zero value is not usable; construct
// with NewMemDisk.
//
// A MemDisk holds what is live: a track's words are allocated when it is
// first written, a discarded track's words go to a free list, and a later
// first write takes its tracks from that list before it cuts new ones.
type MemDisk struct {
	mu     sync.RWMutex
	b      int
	chunks []*[trackChunk][]Word // chunk c holds tracks [c·trackChunk, (c+1)·trackChunk)
	high   int                   // highest track written + 1
	free   [][]Word              // discarded tracks, reused by first writes
	closed bool
}

// NewMemDisk returns an empty in-memory disk with block size b.
func NewMemDisk(b int) *MemDisk {
	if b < 1 {
		panic("pdm: NewMemDisk with block size < 1")
	}
	return &MemDisk{b: b}
}

// slot returns where track t's words are held, or nil when t's chunk was
// never allocated. Called with mu held.
func (d *MemDisk) slot(t int) *[]Word {
	c := t / trackChunk
	if c >= len(d.chunks) || d.chunks[c] == nil {
		return nil
	}
	return &d.chunks[c][t%trackChunk]
}

// BlockSize returns the words per track.
func (d *MemDisk) BlockSize() int { return d.b }

// Tracks returns the highest track written + 1.
func (d *MemDisk) Tracks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.high
}

// ReadTrack copies track t into dst: a one-track ReadTracks.
func (d *MemDisk) ReadTrack(t int, dst []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{dst}
	return d.ReadTracks(tracks[:], bufs[:])
}

// WriteTrack stores src as track t: a one-track WriteTracks.
func (d *MemDisk) WriteTrack(t int, src []Word) error {
	tracks, bufs := [1]int{t}, [1][]Word{src}
	return d.WriteTracks(tracks[:], bufs[:])
}

// ReadTracks implements BatchDisk: the whole batch copies under one lock
// acquisition.
func (d *MemDisk) ReadTracks(tracks []int, bufs [][]Word) error {
	if err := validateBatch(d.b, tracks, bufs); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	for i, t := range tracks {
		tr := d.slot(t)
		if tr == nil || *tr == nil {
			return ErrTrackOutOfRange
		}
		copy(bufs[i], *tr)
	}
	return nil
}

// WriteTracks implements BatchDisk: the whole batch stores under one lock
// acquisition. The tracks it writes first come from the free list, and
// those the list cannot serve are cut from one slab sized to exactly
// them, so a disk holds what it was given and no more; a rewrite
// allocates nothing.
func (d *MemDisk) WriteTracks(tracks []int, bufs [][]Word) error {
	if err := validateBatch(d.b, tracks, bufs); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	fresh := 0
	for _, t := range tracks {
		if tr := d.slot(t); tr == nil || *tr == nil {
			fresh++
		}
	}
	slab := make([]Word, max(fresh-len(d.free), 0)*d.b)
	for i, t := range tracks {
		c := t / trackChunk
		if c >= len(d.chunks) {
			d.chunks = append(d.chunks, make([]*[trackChunk][]Word, c+1-len(d.chunks))...)
		}
		if d.chunks[c] == nil {
			d.chunks[c] = new([trackChunk][]Word)
		}
		tr := &d.chunks[c][t%trackChunk]
		if *tr == nil {
			if n := len(d.free) - 1; n >= 0 {
				*tr = d.free[n]
				d.free[n] = nil
				d.free = d.free[:n]
			} else {
				*tr, slab = slab[:d.b:d.b], slab[d.b:]
			}
		}
		copy(*tr, bufs[i])
		d.high = max(d.high, t+1)
	}
	return nil
}

// Discard implements Discarder: the tracks' words go to the free list.
func (d *MemDisk) Discard(tracks []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range tracks {
		if t < 0 {
			continue
		}
		if tr := d.slot(t); tr != nil && *tr != nil {
			d.free = append(d.free, *tr)
			*tr = nil
		}
	}
}

// Close marks the disk closed; subsequent I/O fails with ErrClosed.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.chunks, d.free, d.high = nil, nil, 0
	return nil
}

var (
	_ Disk      = (*MemDisk)(nil)
	_ BatchDisk = (*MemDisk)(nil)
	_ Discarder = (*MemDisk)(nil)
)
