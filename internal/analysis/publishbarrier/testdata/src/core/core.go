// Package core exercises the publish-after-barrier discipline: no
// snapshot publish while a WAL barrier's error is unchecked, and no
// discarded barrier results.
package core

import (
	"sync/atomic"

	"vettest/wal"
)

// Snapshot stands in for the MVCC generation.
type Snapshot struct{ gen uint64 }

type liveState struct {
	snap atomic.Pointer[Snapshot]
	log  *wal.Log
}

// ---- violations --------------------------------------------------------

func (l *liveState) publishUnchecked(sn *Snapshot, rec []byte) {
	seq, err := l.log.Append(rec)
	_ = seq
	_ = err
	l.snap.Store(sn) // want "snapshot published while the error of WAL barrier Append is unchecked"
}

func (l *liveState) publishAfterUnreceivedSync(sn *Snapshot) {
	syncErr := make(chan error, 1)
	go func() { syncErr <- l.log.Sync() }()
	l.snap.Store(sn) // want "snapshot published while the error of WAL barrier Sync is unchecked"
}

func (l *liveState) discardedBarrier() {
	l.log.Sync() // want "result of WAL barrier Sync discarded"
}

func (l *liveState) discardedToBlank(rec []byte) {
	_, _ = l.log.Append(rec) // want "result of WAL barrier Append discarded"
}

func (l *liveState) checkWithoutReturn(sn *Snapshot, rec []byte) {
	_, err := l.log.Append(rec)
	if err != nil {
		// No return/panic: fallthrough still publishes on failure.
		err = nil
	}
	l.snap.Store(sn) // want "snapshot published while the error of WAL barrier Append is unchecked"
}

// twoBranchUnchecked: either append may fail, and nothing checks werr.
func (l *liveState) twoBranchUnchecked(sn *Snapshot, recs [][]byte, external bool) {
	var werr error
	if external {
		_, werr = l.log.AppendExternal(recs)
	} else {
		_, werr = l.log.AppendBatchNoSync(recs)
	}
	_ = werr
	l.snap.Store(sn) // want "snapshot published while the error of WAL barrier AppendBatchNoSync is unchecked"
}

// ---- compliant code ----------------------------------------------------

func (l *liveState) commit(sn *Snapshot, rec []byte) error {
	if _, err := l.log.Append(rec); err != nil {
		return err
	}
	l.snap.Store(sn)
	return nil
}

// groupCommit is the overlapped-fsync leader shape from live.go.
func (l *liveState) groupCommit(sn *Snapshot, recs [][]byte) error {
	syncErr := make(chan error, 1)
	go func() { syncErr <- l.log.Sync() }()
	if _, err := l.log.AppendBatchNoSync(recs); err != nil {
		return err
	}
	if werr := <-syncErr; werr != nil {
		return werr
	}
	l.snap.Store(sn)
	return nil
}

// twoBranchCommit is the commit shape from live.go: one of two appends
// binds werr, and one check covers both.
func (l *liveState) twoBranchCommit(sn *Snapshot, recs [][]byte, external bool) error {
	var werr error
	if external {
		_, werr = l.log.AppendExternal(recs)
	} else {
		_, werr = l.log.AppendBatchNoSync(recs)
	}
	if werr != nil {
		return werr
	}
	l.snap.Store(sn)
	return nil
}

// replayPublish has no barrier at all: replay and compaction publish
// state the log already contains.
func (l *liveState) replayPublish(sn *Snapshot) {
	l.snap.Store(sn)
}

// nonBarrierCall: Stats is not a barrier and needs no check.
func (l *liveState) nonBarrierCall(sn *Snapshot) {
	n := l.log.Stats()
	_ = n
	l.snap.Store(sn)
}

// otherPointerStore: Stores on non-Snapshot pointers are not publishes.
type sideState struct {
	p   atomic.Pointer[int]
	log *wal.Log
}

func (s *sideState) sideStore(v *int, rec []byte) error {
	if _, err := s.log.Append(rec); err != nil {
		return err
	}
	s.p.Store(v)
	return nil
}
