package amber

import (
	"errors"

	"repro/internal/core"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Update parses and executes a SPARQL 1.1 Update request against the
// database. The supported fragment is INSERT DATA, DELETE DATA, CLEAR
// [DEFAULT|ALL] and LOAD <file>; operations separated by ';' run in
// order, each atomically visible. The handle's default prefixes apply,
// as for queries.
//
// Consistency model: when Update returns, every subsequently started
// query on any handle sharing this database sees the new state
// (read-your-writes); queries already running finish against the
// snapshot they started on (snapshot isolation). Writers serialize
// internally and never block readers.
func (db *DB) Update(updateText string) error {
	return db.UpdateOpts(updateText, nil)
}

// UpdateOptions restrict what an update request may do.
type UpdateOptions struct {
	// AllowLoad permits LOAD operations, which read local files. Leave
	// false when the update text comes from an untrusted source (the
	// HTTP server does, unless started with -allow-load).
	AllowLoad bool
}

// UpdateOpts is Update with explicit restrictions. A nil opts allows
// everything (trusted, programmatic use).
func (db *DB) UpdateOpts(updateText string, opts *UpdateOptions) error {
	u, err := sparql.ParseUpdateWith(updateText, db.prefixes)
	if err != nil {
		return err
	}
	if opts != nil && !opts.AllowLoad {
		for _, op := range u.Ops {
			if op.Kind == sparql.UpLoad {
				return errors.New("amber: LOAD is disabled for this update source")
			}
		}
	}
	return db.store.ApplyUpdate(u)
}

// Mutate applies one programmatic write batch: dels are removed first,
// then adds are inserted, as a single atomically visible change.
// Deleting an absent triple or inserting a present one is a no-op. See
// Update for the consistency model.
func (db *DB) Mutate(adds, dels []rdf.Triple) error {
	return db.store.Mutate(adds, dels)
}

// Epoch returns the database's data version. It increases on every
// mutation, compaction and clear; equal epochs guarantee identical query
// answers, which is what result caches should key on.
func (db *DB) Epoch() uint64 {
	return db.store.Epoch()
}

// Compact synchronously rebuilds the base generation plus the delta
// overlay into a fresh frozen generation (graph, index ensemble and
// planner statistics) and swaps it in. Mutations normally trigger this
// in the background past the compaction threshold; Compact forces it.
func (db *DB) Compact() error {
	return db.store.Compact()
}

// WaitCompaction blocks until no background compaction is running —
// useful for tests and orderly shutdown.
func (db *DB) WaitCompaction() {
	db.store.WaitCompaction()
}

// SetCompactThreshold tunes when background compaction fires: once the
// delta overlay holds at least n entries (added triples + tombstones).
// n <= 0 disables automatic compaction; Compact still works. The default
// is core.DefaultCompactThreshold (8192).
func (db *DB) SetCompactThreshold(n int) {
	db.store.SetCompactThreshold(n)
}

// GenerationStats describes the live-update state of the database: the
// epoch, the base generation, the overlay's size and the update and
// compaction counters. It is an alias of the store's own type, so the
// facade reports the store's numbers without copying them.
type GenerationStats = core.GenerationInfo

// Generation snapshots the live-update counters.
func (db *DB) Generation() GenerationStats { return db.store.GenerationInfo() }

// WriteStats describes the write path's group-commit and overlay
// copy-on-write behaviour.
type WriteStats struct {
	// Batches counts records committed through the write path (one per
	// Mutate batch; a Clear counts as one); Groups counts commit groups
	// (one WAL append span, one fsync under fsync=always, one published
	// snapshot per group). Batches/Groups is the mean group size;
	// DurabilityStats.Fsyncs / Batches is the per-batch fsync cost the
	// grouping amortized.
	Batches uint64
	Groups  uint64
	// MaxGroupSize is the largest commit group since the database opened.
	MaxGroupSize uint64
	// GroupSizeBounds and GroupSizeBuckets form a histogram of commit
	// group sizes: bucket i counts groups of ≤ GroupSizeBounds[i] batches,
	// with one final overflow bucket.
	GroupSizeBounds  []uint64
	GroupSizeBuckets []uint64
	// OverlayEntriesCopied and OverlayBytesCopied measure the overlay's
	// cumulative copy-on-write effort; the per-batch increment is
	// O(batch), independent of overlay size. OverlayVersions counts the
	// live overlay's retained bucket versions.
	OverlayEntriesCopied uint64
	OverlayBytesCopied   uint64
	OverlayVersions      uint64
}

// WriteStats snapshots the write-path counters.
func (db *DB) WriteStats() WriteStats {
	wi := db.store.WriteInfo()
	ws := WriteStats{
		Batches:              wi.Batches,
		Groups:               wi.Groups,
		MaxGroupSize:         wi.MaxGroupSize,
		GroupSizeBounds:      append([]uint64(nil), core.GroupSizeBounds[:]...),
		GroupSizeBuckets:     append([]uint64(nil), wi.GroupSizeBuckets[:]...),
		OverlayEntriesCopied: wi.OverlayEntriesCopied,
		OverlayBytesCopied:   wi.OverlayBytesCopied,
		OverlayVersions:      wi.OverlayVersions,
	}
	return ws
}
