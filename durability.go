package amber

import (
	"os"

	"repro/internal/core"
	"repro/internal/wal"
)

// ErrDurability marks update failures caused by the write-ahead log —
// disk full, fsync failure, or the log being closed (e.g. during a
// server reload) — rather than by the request itself. Match it with
// errors.Is: such failures are server-side and retryable, unlike parse
// or validation errors.
var ErrDurability = core.ErrDurability

// DurabilityOptions configure a durable database directory. The zero
// value (or a nil pointer) selects fsync=always with default segment
// sizing and no bootstrap source.
type DurabilityOptions struct {
	// Fsync is the WAL fsync policy, in flag syntax: "always" (the
	// default — no acknowledged update is ever lost), "never" (the OS
	// page cache decides; an OS crash may lose recent updates), or
	// "interval=<duration>" (background fsync; a crash loses at most the
	// last interval of updates).
	Fsync string
	// SegmentBytes rotates WAL segments past this size (0 = 16 MiB).
	SegmentBytes int64
	// CheckpointOnCompact checkpoints automatically after every completed
	// compaction, so the WAL stays bounded by roughly the compaction
	// threshold instead of growing forever.
	CheckpointOnCompact bool
	// SourcePath is an RDF file (N-Triples / prefixed Turtle) that seeds
	// the database when the directory holds no checkpointed snapshot.
	// Bootstrap, when set, takes precedence.
	SourcePath string
	// Bootstrap loads the initial database when the directory holds no
	// checkpointed snapshot (e.g. from a binary snapshot elsewhere). WAL
	// records always replay on top of whichever base is loaded.
	Bootstrap func() (*DB, error)
	// WrapWALFile is a fault-injection hook wrapping each active WAL
	// segment file (see wal.Options.WrapFile); nil in production.
	WrapWALFile func(*os.File) wal.SegmentFile
}

// OpenDurable opens a crash-safe database rooted at dir: the directory
// holds a checkpointed base snapshot (once DB.Checkpoint has run) plus
// the write-ahead log segments. Opening loads the snapshot — or the
// bootstrap source, or an empty store — and then replays every update
// logged since the last checkpoint, so acknowledged writes survive a
// crash or restart without an explicit Save.
//
// Precedence: a checkpointed snapshot in dir supersedes the bootstrap
// source (it is strictly newer — it folded the source plus logged
// updates at checkpoint time).
func OpenDurable(dir string, opts *DurabilityOptions) (*DB, error) {
	var o DurabilityOptions
	if opts != nil {
		o = *opts
	}
	policy, interval, err := wal.ParseSyncPolicy(o.Fsync)
	if err != nil {
		return nil, err
	}

	var db *DB
	snapPath := core.CheckpointSnapshotPath(dir)
	if _, serr := os.Stat(snapPath); serr == nil {
		db, err = OpenSnapshotFile(snapPath)
	} else if !os.IsNotExist(serr) {
		// A checkpoint may exist but be unreadable (EACCES, EIO): falling
		// back to the bootstrap source would silently resurrect the
		// pre-checkpoint state, so refuse instead.
		return nil, serr
	} else if o.Bootstrap != nil {
		db, err = o.Bootstrap()
	} else if o.SourcePath != "" {
		db, err = OpenFile(o.SourcePath)
	} else {
		st, nerr := core.NewStore(nil)
		db, err = &DB{store: st}, nerr
	}
	if err != nil {
		return nil, err
	}

	// Before replay, the store holds exactly the base. A non-empty base is
	// state the WAL cannot reconstruct — recorded so the replication
	// primary makes fresh followers bootstrap from a snapshot.
	baseLoaded := db.Stats().Triples > 0

	if _, err := db.store.AttachWAL(dir, core.WALOptions{
		Policy:              policy,
		Interval:            interval,
		SegmentBytes:        o.SegmentBytes,
		CheckpointOnCompact: o.CheckpointOnCompact,
		WrapFile:            o.WrapWALFile,
		BaseLoaded:          baseLoaded,
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// Sync forces the write-ahead log to stable storage, whatever the fsync
// policy — the explicit durability barrier for fsync=never or
// fsync=interval databases. A database without a WAL returns nil.
func (db *DB) Sync() error {
	return db.store.SyncWAL()
}

// Checkpoint writes the merged state as the directory's base snapshot
// (atomically, via rename) and truncates the WAL segments it covers.
// The next OpenDurable loads the snapshot and replays only updates
// logged after the checkpoint. Returns core.ErrNotDurable when the
// database was not opened durably.
func (db *DB) Checkpoint() error {
	return db.store.Checkpoint()
}

// Close syncs and closes the write-ahead log. The database stays
// readable, but further updates fail — a durable database never
// acknowledges a write it cannot log. Databases without a WAL return
// nil and remain writable.
func (db *DB) Close() error {
	return db.store.CloseWAL()
}

// DurabilityStats describes the database's write-ahead durability state:
// the log's directory, fsync policy, size and counters, and the last
// checkpoint. All fields are zero when the database was not opened
// durably. It is an alias of the store's own type.
type DurabilityStats = core.DurabilityInfo

// Durability snapshots the durability counters.
func (db *DB) Durability() DurabilityStats { return db.store.DurabilityInfo() }
