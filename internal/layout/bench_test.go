package layout

import (
	"testing"

	"repro/internal/pdm"
)

// BenchmarkWriteFIFO measures the DiskWrite scheduler's packing on a full
// message-matrix outbox, as the engine calls it: split-phase, with a
// scratch kept across bursts (0 allocs/op).
func BenchmarkWriteFIFO(b *testing.B) {
	b.ReportAllocs()
	const v, bpm, d, blk = 16, 4, 4, 64
	m, err := NewMatrix(v, bpm, d, 0)
	if err != nil {
		b.Fatal(err)
	}
	arr := pdm.NewMemArray(d, blk)
	reqs := m.AppendOutboxReqs(nil, 0, 3)
	bufs := make([][]pdm.Word, len(reqs))
	for i := range bufs {
		bufs[i] = make([]pdm.Word, blk)
	}
	var s Scratch
	var pend pdm.PendingSet
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BeginWriteFIFOScratch(arr, reqs, bufs, &s, &pend); err != nil {
			b.Fatal(err)
		}
		if err := pend.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
