package pdm

import (
	"sync"
)

// Disk is a track-addressed block store. Every track holds exactly one
// block of B words. Tracks are created on first write; reading a track
// that was never written returns ErrTrackOutOfRange.
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

// MemDisk is an in-memory Disk. The zero value is not usable; construct
// with NewMemDisk.
type MemDisk struct {
	mu     sync.RWMutex
	b      int
	tracks [][]Word
	closed bool
}

// NewMemDisk returns an empty in-memory disk with block size b.
func NewMemDisk(b int) *MemDisk {
	if b < 1 {
		panic("pdm: NewMemDisk with block size < 1")
	}
	return &MemDisk{b: b}
}

// BlockSize returns the words per track.
func (d *MemDisk) BlockSize() int { return d.b }

// Tracks returns the number of allocated tracks.
func (d *MemDisk) Tracks() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tracks)
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
		if t >= len(d.tracks) || d.tracks[t] == nil {
			return ErrTrackOutOfRange
		}
		copy(bufs[i], d.tracks[t])
	}
	return nil
}

// WriteTracks implements BatchDisk: the whole batch stores under one lock
// acquisition. The tracks it writes first are cut from one slab sized to
// exactly those tracks, so a disk holds what it was given and no more; a
// rewrite allocates nothing.
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
		if t >= len(d.tracks) || d.tracks[t] == nil {
			fresh++
		}
	}
	slab := make([]Word, fresh*d.b)
	for i, t := range tracks {
		for t >= len(d.tracks) {
			d.tracks = append(d.tracks, nil)
		}
		if d.tracks[t] == nil {
			d.tracks[t], slab = slab[:d.b:d.b], slab[d.b:]
		}
		copy(d.tracks[t], bufs[i])
	}
	return nil
}

// Close marks the disk closed; subsequent I/O fails with ErrClosed.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.tracks = nil
	return nil
}

var (
	_ Disk      = (*MemDisk)(nil)
	_ BatchDisk = (*MemDisk)(nil)
)
