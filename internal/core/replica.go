package core

import (
	"fmt"
	"io"

	"repro/internal/multigraph"
	"repro/internal/rdf"
	"repro/internal/wal"
)

// The replica apply path. Startup replay (AttachWAL) and replication
// catch-up (a follower pulling the primary's WAL over the network) are
// the same problem — apply an ordered sequence of already-logged records
// to the store — and both go through commit, the function Mutate and
// Clear commit through: replay logs nothing (logNone), a follower adopts
// the primary's sequences (logExternal). Whatever the crash-point sweep
// proves about replay therefore holds for network catch-up and for
// local writes too.

// storeConsumer feeds WAL records into a Store without re-logging them:
// the wal.Consumer that replays the log on open.
type storeConsumer struct{ s *Store }

// Consume validates and commits one record.
func (c storeConsumer) Consume(r wal.Record) error {
	if err := validateRecord(r); err != nil {
		return err
	}
	return c.s.commit([]wal.Record{r}, logNone)
}

// validateRecord is the up-front validation every record passes before
// commit, which relies on Apply being infallible for validated input
// (the shared overlay cannot roll back a half-applied group).
func validateRecord(r wal.Record) error {
	switch r.Kind {
	case wal.KindMutation, wal.KindClear: // a clear carries no triples
		for _, ts := range [][]rdf.Triple{r.Dels, r.Adds} {
			for _, t := range ts {
				if err := multigraph.Validate(t); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown WAL record kind %v", r.Kind)
	}
}

// ApplyReplicated appends records that already carry the primary's
// sequence numbers to the local log and applies them to the store, as
// one atomic step with respect to Checkpoint's (snapshot, lastSeq)
// capture. This is the follower's write path: after it returns, the
// local WAL and the live snapshot agree through the batch's last record,
// so a crash recovers to exactly this point and the stream resumes at
// LastSeq+1.
//
// The store's own epoch still advances once per record — local caches
// key on it — while the primary-comparable epoch travels inside each
// record (Record.Epoch) for the replication layer to track.
func (s *Store) ApplyReplicated(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	for _, r := range recs {
		if err := validateRecord(r); err != nil {
			return err
		}
	}
	return s.commit(recs, logExternal)
}

// SaveReplica streams the store's merged state to w and returns the WAL
// sequence number and store epoch the snapshot covers, captured
// atomically with the state exactly as Checkpoint does. The replication
// primary serves follower bootstraps and resyncs with it; a follower
// that loads the snapshot and resumes the stream at seq+1 reproduces the
// primary exactly.
func (s *Store) SaveReplica(w io.Writer) (seq, epoch uint64, err error) {
	d := s.dur.Load()
	if d == nil {
		return 0, 0, ErrNotDurable
	}
	sn, seq := s.capture(d)
	if err := sn.merged().Encode(w); err != nil {
		return 0, 0, err
	}
	return seq, sn.Epoch, nil
}

// WAL exposes the attached log (nil without one). The replication
// primary reads segments, subscribes to appends, and installs its
// retention hook through it.
func (s *Store) WAL() *wal.Log {
	if d := s.dur.Load(); d != nil {
		return d.log
	}
	return nil
}
