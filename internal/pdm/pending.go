package pdm

import (
	"fmt"
	"sync"
)

// Pending is the handle of one in-flight split-phase parallel I/O
// operation started by BeginReadBlocks or BeginWriteBlocks. The operation
// was accounted and dispatched to the per-disk workers at begin time;
// Wait blocks until every transfer has completed and returns the first
// error in request order — exactly the error ReadBlocks/WriteBlocks would
// have returned.
//
// A Pending must be waited exactly once, by the goroutine that began it
// (or one synchronised with it); Wait recycles the handle into the
// array's freelist, which is what keeps the split-phase hot path at zero
// allocations per operation in steady state. Waiting a nil Pending is a
// no-op, so error-path drains can Wait unconditionally.
type Pending struct {
	a      *DiskArray
	n      int     // transfers dispatched
	errs   []error // per-transfer result slots, len = D of the owning array
	wg     sync.WaitGroup
	poison *pendingPoison // checked-mode write loan record, nil otherwise
	next   *Pending       // freelist link, guarded by the array's opMu
}

// donePending is the shared handle of an empty operation: no transfers,
// no accounting, Wait returns nil without touching any freelist.
var donePending Pending

// Wait blocks until the operation's transfers have all completed, then
// returns the first error in request order (nil on success) and recycles
// the handle. After Wait returns, the buffers passed at begin time are
// the caller's again. Wait on a nil or already-waited handle returns nil.
func (p *Pending) Wait() error {
	if p == nil || p.a == nil {
		return nil
	}
	p.wg.Wait()
	var first error
	if p.poison != nil {
		first = p.poison.verifyAndRestore()
		p.poison = nil
	}
	for _, err := range p.errs[:p.n] {
		if err != nil {
			if first == nil {
				first = err
			}
			break
		}
	}
	a := p.a
	p.a = nil
	p.n = 0
	a.opMu.Lock()
	p.next = a.free
	a.free = p
	a.opMu.Unlock()
	return first
}

// BeginReadBlocks starts one parallel I/O reading reqs[i] into bufs[i]
// (each of length B) and returns without waiting for the transfers. The
// operation is validated, accounted, and dispatched under the array's
// operation mutex, so the PDM counters reflect it immediately and the
// per-disk FIFO order of transfers equals the begin order of operations —
// the property the pipelined superstep drivers rely on for write→read
// dependencies on the same track. bufs must stay untouched until Wait.
func (a *DiskArray) BeginReadBlocks(reqs []BlockReq, bufs [][]Word) (*Pending, error) {
	return a.begin(reqs, bufs, true)
}

// BeginWriteBlocks starts one parallel I/O writing bufs[i] (length B) to
// reqs[i] and returns without waiting; see BeginReadBlocks for the
// ordering and buffer-ownership contract.
func (a *DiskArray) BeginWriteBlocks(reqs []BlockReq, bufs [][]Word) (*Pending, error) {
	return a.begin(reqs, bufs, false)
}

// begin validates one parallel I/O, charges the PDM accounting, and
// dispatches the transfers to the per-disk workers, all before any disk
// has been touched. Charging at begin time (rather than at completion,
// as the synchronous path used to) is what keeps the operation counts
// bit-identical between the pipelined and synchronous schedules: on a
// successful run every operation is counted exactly once either way, and
// the count is independent of how far completion lags dispatch.
//
// Like doBlocks before it, begin performs zero heap allocations in steady
// state: the Pending handles cycle through a freelist under opMu.
func (a *DiskArray) begin(reqs []BlockReq, bufs [][]Word, read bool) (*Pending, error) {
	if len(reqs) != len(bufs) {
		return nil, fmt.Errorf("pdm: %d requests but %d buffers", len(reqs), len(bufs))
	}
	if len(reqs) == 0 {
		return &donePending, nil
	}
	a.opMu.Lock()
	defer a.opMu.Unlock()
	if a.closed {
		return nil, ErrClosed
	}
	// Checked mode validates before checkReqs, so each violation keeps
	// its own sentinel.
	if a.check != nil {
		if err := a.check.validate(reqs, read); err != nil {
			return nil, err
		}
	}
	if err := a.checkReqs(reqs); err != nil {
		return nil, err
	}
	p := a.free
	if p == nil {
		p = &Pending{errs: make([]error, len(a.disks))}
	} else {
		a.free = p.next
		p.next = nil
	}
	p.a = a
	p.n = len(reqs)
	// Checked mode: writes dispatch a private snapshot while the caller's
	// buffers carry the poison sentinel until Wait; read destinations are
	// poisoned so a premature read sees deterministic garbage rather than
	// stale superstep data.
	if a.check != nil {
		if read {
			a.check.poisonRead(bufs)
		} else {
			p.poison = a.check.loanWrite(bufs)
		}
	}
	p.wg.Add(len(reqs))
	for i, r := range reqs {
		p.errs[i] = nil
		buf := bufs[i]
		if p.poison != nil {
			buf = p.poison.saved[i]
		}
		// A send under opMu: opMu serialises operation dispatch by design;
		// the per-disk work queues are buffered and drained by resident
		// workers, so this send cannot block on a peer that needs opMu.
		a.work[r.Disk] <- diskOp{track: r.Track, buf: buf, read: read, err: &p.errs[i], wg: &p.wg}
	}
	a.account(len(reqs), read)
	// Checked mode commits the initialised blocks at begin, which keeps it
	// exact under pipelining: a read begun after a write to the same track
	// sees it initialised, and the per-disk FIFO puts the data there first.
	if a.check != nil {
		a.check.commit(reqs, read)
	}
	return p, nil
}

// PendingSet accumulates the Pending handles of a multi-operation I/O
// sequence (a striped context run, a FIFO-packed message transfer) so a
// superstep driver can begin a whole logical transfer and wait it as one
// unit. The zero value is ready to use; Add/Wait cycle the backing slice
// so a set reused across supersteps is allocation-free in steady state.
// A set is owned by a single goroutine.
type PendingSet struct {
	ps []*Pending
}

// Add appends one pending operation to the set.
func (s *PendingSet) Add(p *Pending) {
	s.ps = append(s.ps, p)
}

// Len returns the number of pending operations in the set.
func (s *PendingSet) Len() int { return len(s.ps) }

// Wait drains every pending operation in the set, in begin order, and
// returns the first error encountered (all operations are waited even
// after an error, so no handle leaks and no worker result is abandoned).
// The set is empty afterwards and ready for reuse; waiting an empty set
// returns nil, so error paths can drain unconditionally.
func (s *PendingSet) Wait() error {
	var first error
	for i, p := range s.ps {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
		s.ps[i] = nil
	}
	s.ps = s.ps[:0]
	return first
}
