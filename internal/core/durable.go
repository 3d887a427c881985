package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multigraph"
	"repro/internal/wal"
)

// ErrNotDurable is returned by durability operations on a store that has
// no write-ahead log attached.
var ErrNotDurable = errors.New("core: store has no write-ahead log attached")

// snapshotName is the checkpointed base snapshot inside a durable
// directory; CheckpointSnapshotPath exposes its full path.
const snapshotName = "base.snap"

// CheckpointSnapshotPath returns the path of the checkpointed base
// snapshot inside a durable directory (written by Checkpoint, loaded by
// callers bootstrapping a store before AttachWAL).
func CheckpointSnapshotPath(dir string) string {
	return filepath.Join(dir, snapshotName)
}

// WALOptions configure a store's write-ahead log.
type WALOptions struct {
	// Policy is the fsync policy; the zero value is wal.SyncAlways.
	Policy wal.SyncPolicy
	// Interval is the background fsync period for wal.SyncEvery.
	Interval time.Duration
	// SegmentBytes rotates segments past this size (0 = wal default).
	SegmentBytes int64
	// CheckpointOnCompact checkpoints (snapshot save + WAL truncation)
	// automatically after every completed compaction, bounding the log to
	// roughly one compaction threshold of records.
	CheckpointOnCompact bool
	// WrapFile is the fault-injection hook passed through to the log (see
	// wal.Options.WrapFile); nil in production.
	WrapFile func(*os.File) wal.SegmentFile
	// BaseLoaded records that the store held state from a base (checkpoint
	// snapshot or bootstrap source) before the WAL replayed — state the
	// log alone cannot reconstruct. The replication primary refuses
	// stream-from-zero requests when it is set, forcing fresh followers
	// to bootstrap from a snapshot instead of silently missing the base.
	// A fresh log under a loaded base is also stamped at sequence 1 (see
	// wal.Options.InitialSeq), so replication snapshots of the untouched
	// store never report sequence zero.
	BaseLoaded bool
}

// ErrDurability marks mutation failures caused by the write-ahead log
// (disk full, fsync failure, log closed during a reload) rather than by
// the request itself. Callers use errors.Is to map them to retryable
// server-side failures instead of client errors.
var ErrDurability = errors.New("core: write-ahead log failure")

// durable is the WAL attachment of a Store.
type durable struct {
	log            *wal.Log
	dir            string
	autoCheckpoint bool
	syncAlways     bool // fsync=always: commit owns the sync barrier
	baseLoaded     bool // pre-WAL base state exists (see WALOptions.BaseLoaded)

	cpMu   sync.Mutex   // serializes checkpoint persists with each other and with CloseWAL
	closed atomic.Bool  // set under cpMu before the log closes
	cpErr  atomic.Value // string: last auto-checkpoint failure, "" once one succeeds
}

// AttachWAL opens (creating if necessary) the write-ahead log in dir,
// replays every surviving record since the last checkpoint into the store
// — in order, through the normal mutation path — and attaches the log so
// every later mutation is logged and fsynced (per the policy) before it
// is published. It returns the number of records replayed. Replay
// compacts nothing, so its result does not depend on timing; then an
// overlay past the threshold starts one background compaction, and under
// CheckpointOnCompact one checkpoint after it.
//
// Attach before sharing the store: replay mutates it, and the caller must
// discard the store if AttachWAL fails partway through a replay.
func (s *Store) AttachWAL(dir string, o WALOptions) (int, error) {
	if s.dur.Load() != nil {
		return 0, errors.New("core: store already has a write-ahead log attached")
	}
	// Replay goes through storeConsumer into commit — the function local
	// writes and a replication follower's records commit through — so the
	// one apply path is covered by both the crash-point sweep and the
	// replication tests.
	walOpts := wal.Options{
		Policy:       o.Policy,
		Interval:     o.Interval,
		SegmentBytes: o.SegmentBytes,
		WrapFile:     o.WrapFile,
	}
	if o.BaseLoaded {
		// Give the base a sequence of its own: a fresh log opens at 1
		// instead of 0, so a replication snapshot taken before any write
		// already carries a non-zero sequence and followers resync past
		// the refused from=0 window instead of looping on it.
		walOpts.InitialSeq = 1
	}
	log, err := wal.Open(dir, walOpts, storeConsumer{s})
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrDurability, err)
	}
	s.dur.Store(&durable{
		log: log, dir: dir,
		autoCheckpoint: o.CheckpointOnCompact,
		syncAlways:     o.Policy == wal.SyncAlways,
		baseLoaded:     o.BaseLoaded,
	})
	s.maybeCompact()
	return log.Stats().Replayed, nil
}

// CloseWAL syncs and closes the attached log. The store stays readable,
// but every further mutation fails with wal.ErrClosed — a durable store
// must never acknowledge a write it cannot log. A store without a WAL
// returns nil. Taking cpMu serializes the close with any in-flight
// Checkpoint, so a checkpoint can never install a snapshot after the
// directory has been handed to a successor (e.g. a server reload).
func (s *Store) CloseWAL() error {
	d := s.dur.Load()
	if d == nil {
		return nil
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	d.closed.Store(true)
	if err := d.log.Close(); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// SyncWAL forces an fsync of the log, whatever the policy — the explicit
// durability barrier for SyncEvery / SyncNever stores. A store without a
// WAL returns nil.
func (s *Store) SyncWAL() error {
	d := s.dur.Load()
	if d == nil {
		return nil
	}
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// Checkpoint makes the current merged state durable as a base snapshot
// (dir/base.snap, written atomically via rename) and truncates every WAL
// segment the snapshot covers. Reopening the directory afterwards loads
// the snapshot and replays only records logged after the checkpoint.
// Concurrent mutations are safe: a batch that lands mid-checkpoint keeps
// its WAL record and replays on top of the snapshot (the capture is
// consistent, so replay reproduces the exact state).
func (s *Store) Checkpoint() error {
	d := s.dur.Load()
	if d == nil {
		return ErrNotDurable
	}
	sn, seq := s.capture(d)
	return d.persist(sn.merged(), seq)
}

// capture pins the current snapshot together with the sequence of the
// last record it holds: appends and publishes happen under the writer
// lock, so the snapshot holds exactly the records through seq.
func (s *Store) capture(d *durable) (*Snapshot, uint64) {
	l := &s.live
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap.Load(), d.log.LastSeq()
}

// persist installs g, the state through record seq, as the checkpointed
// base and truncates the log through seq. It writes nothing when seq is
// below the log's checkpoint, which a later capture has already
// installed: replacing that file with older state would lose the records
// in between, which the log no longer holds.
func (d *durable) persist(g *multigraph.Graph, seq uint64) error {
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if d.closed.Load() {
		// Fail before touching the snapshot file: after CloseWAL the
		// directory may belong to a successor store (server reload), and
		// installing this store's older state over its base.snap would
		// silently roll back updates the successor acknowledged.
		return wal.ErrClosed
	}
	if seq < d.log.Stats().CheckpointSeq {
		return nil
	}
	path := CheckpointSnapshotPath(d.dir)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	werr := g.Encode(f)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp) //nolint:errcheck
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := wal.SyncDir(d.dir); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	if err := d.log.Checkpoint(seq); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// maybeAutoCheckpoint runs after a completed compaction when the store
// was attached with CheckpointOnCompact: it persists g, the base the
// compaction swapped in, at seq, the last record the base holds. The
// records the compaction replayed onto the new overlay stay in the log.
// Failures are retained for DurabilityInfo rather than surfaced: the data
// is still safe in the WAL, which simply keeps growing until a checkpoint
// succeeds.
func (s *Store) maybeAutoCheckpoint(g *multigraph.Graph, seq uint64) {
	d := s.dur.Load()
	if d == nil || !d.autoCheckpoint {
		return
	}
	if err := d.persist(g, seq); err != nil {
		d.cpErr.Store(err.Error())
	} else {
		d.cpErr.Store("")
	}
}

// DurabilityInfo describes the store's write-ahead durability state: the
// quantities the server's /stats "durability" section reports.
type DurabilityInfo struct {
	// Enabled reports whether a WAL is attached; all other fields are
	// zero when it is false.
	Enabled bool
	// Dir is the durable directory; Policy the fsync policy in -fsync
	// flag syntax.
	Dir    string
	Policy string
	// WALBytes and Segments size the live log.
	WALBytes int64
	Segments int
	// LastSeq is the newest record's sequence; CheckpointSeq the sequence
	// through which records have been checkpointed away.
	LastSeq       uint64
	CheckpointSeq uint64
	// Appends and Fsyncs count log operations since open; Replayed is the
	// number of records replayed when the store was opened.
	Appends  uint64
	Fsyncs   uint64
	Replayed int
	// Checkpoints counts completed checkpoints since open; LastCheckpoint
	// is when the most recent one finished (zero if none).
	Checkpoints    uint64
	LastCheckpoint time.Time
	// LastCheckpointError is the most recent auto-checkpoint failure, or
	// empty ("") when none has failed since the last success.
	LastCheckpointError string
	// BaseLoaded reports that the store's open loaded a base (checkpoint
	// snapshot or bootstrap source) the WAL alone cannot reconstruct.
	BaseLoaded bool
}

// DurabilityInfo snapshots the durability counters.
func (s *Store) DurabilityInfo() DurabilityInfo {
	d := s.dur.Load()
	if d == nil {
		return DurabilityInfo{}
	}
	st := d.log.Stats()
	info := DurabilityInfo{
		Enabled:        true,
		Dir:            d.dir,
		Policy:         st.Policy,
		WALBytes:       st.Bytes,
		Segments:       st.Segments,
		LastSeq:        st.LastSeq,
		CheckpointSeq:  st.CheckpointSeq,
		Appends:        st.Appends,
		Fsyncs:         st.Fsyncs,
		Replayed:       st.Replayed,
		Checkpoints:    st.Checkpoints,
		LastCheckpoint: st.LastCheckpoint,
		BaseLoaded:     d.baseLoaded,
	}
	if v, ok := d.cpErr.Load().(string); ok {
		info.LastCheckpointError = v
	}
	return info
}
