package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/multigraph"
	"repro/internal/rdf"
	"repro/internal/wal"
)

// DefaultCompactThreshold is the overlay size (added triples plus
// tombstones) past which a mutation triggers background compaction.
const DefaultCompactThreshold = 8192

// versionsPerEntry bounds version-chain memory under churn: the overlay
// retains a copy-on-write bucket version per mutation, and adds that
// cancel against deletes leave Size unchanged while versions keep
// growing. Compaction therefore also triggers once the overlay holds
// more than versionsPerEntry × threshold retained versions.
const versionsPerEntry = 8

// commitReq is one writer's record waiting on the commit queue. done is
// closed once the record has been durably committed (or failed), with
// err carrying the outcome.
type commitReq struct {
	rec  wal.Record
	err  error
	done chan struct{}
}

// liveState is the MVCC machinery of a Store: the atomically swapped
// snapshot, the writer lock, the group-commit queue, the replay log of
// the current base generation, and the compaction bookkeeping.
type liveState struct {
	snap atomic.Pointer[Snapshot]

	mu         sync.Mutex   // serializes commits and compaction swap-ins
	log        []wal.Record // mutations committed while a compaction is rebuilding
	compacting bool         // guarded by mu; one compaction at a time

	// Group commit: concurrent Mutate and Clear callers enqueue their
	// records; the first becomes the leader and commits everything queued
	// as one group (one WAL append span, one fsync, one published
	// snapshot), then re-drains until the queue is empty. qmu only guards
	// the queue — it is never held across a commit, so enqueueing never
	// blocks on I/O.
	qmu     sync.Mutex
	queue   []*commitReq
	leading bool

	// compactDone is closed when the in-flight compaction (background or
	// forced) finishes, including any post-compaction auto checkpoint;
	// nil when idle. Guarded by mu. A fresh channel per cycle avoids
	// sync.WaitGroup's Add-concurrent-with-Wait reuse hazard.
	compactDone chan struct{}

	compactThreshold atomic.Int64

	// rebuilt, when non-nil, runs in every compaction between the rebuild
	// and the swap. Tests set it to land writes the swap must replay.
	rebuilt func()

	updates        atomic.Uint64
	compactions    atomic.Uint64
	lastCompaction atomic.Int64 // nanoseconds

	// Commit-group statistics (see WriteInfo).
	groups         atomic.Uint64
	groupedBatches atomic.Uint64
	maxGroup       atomic.Uint64
	groupSizes     [groupSizeBuckets]atomic.Uint64

	// Copy-on-write effort retired with replaced generations; the live
	// generation's counters stay in its delta overlay.
	copiedEntriesPrev atomic.Uint64
	copiedBytesPrev   atomic.Uint64
}

// retireDelta folds a replaced generation's copy-on-write counters into
// the store-lifetime accumulators (called under mu at snapshot swap).
func (l *liveState) retireDelta(v *delta.View) {
	e, b := v.CopyStats()
	l.copiedEntriesPrev.Add(e)
	l.copiedBytesPrev.Add(b)
}

func (l *liveState) init(sn *Snapshot) {
	l.snap.Store(sn)
	l.compactThreshold.Store(DefaultCompactThreshold)
}

func (l *liveState) snapshot() *Snapshot { return l.snap.Load() }

// GenerationInfo describes the store's live-update state: the quantities
// the server's /stats "generation" section reports.
type GenerationInfo struct {
	// Epoch is the data version (see Snapshot.Epoch).
	Epoch uint64
	// Generation counts base rebuilds (compactions and clears).
	Generation uint64
	// DeltaAdds and DeltaTombstones size the uncompacted overlay.
	DeltaAdds, DeltaTombstones int
	// Updates counts applied records (mutation batches and clears) since
	// the store opened, whichever path committed them.
	Updates uint64
	// Compactions counts completed compactions; LastCompaction is the
	// wall-clock duration of the most recent one (zero if none ran).
	Compactions    uint64
	LastCompaction time.Duration
}

// GenerationInfo snapshots the live-update counters.
func (s *Store) GenerationInfo() GenerationInfo {
	sn := s.Snapshot()
	return GenerationInfo{
		Epoch:           sn.Epoch,
		Generation:      sn.Gen,
		DeltaAdds:       sn.Delta.Adds(),
		DeltaTombstones: sn.Delta.Tombstones(),
		Updates:         s.live.updates.Load(),
		Compactions:     s.live.compactions.Load(),
		LastCompaction:  time.Duration(s.live.lastCompaction.Load()),
	}
}

// SetCompactThreshold sets the overlay size (adds + tombstones) past
// which mutations trigger background compaction. n <= 0 disables
// automatic compaction (Compact still works).
func (s *Store) SetCompactThreshold(n int) {
	s.live.compactThreshold.Store(int64(n))
}

// GroupSizeBounds are the upper bounds of WriteInfo.GroupSizeBuckets:
// commit groups of ≤1, ≤2, ≤4, ≤8, ≤16 and ≤32 batches; a final
// overflow bucket counts larger groups.
var GroupSizeBounds = [...]uint64{1, 2, 4, 8, 16, 32}

const groupSizeBuckets = len(GroupSizeBounds) + 1

// WriteInfo describes the write path's group-commit and overlay
// copy-on-write behaviour: the quantities behind the server's /stats
// "write_path" section and the write-path /metrics.
type WriteInfo struct {
	// Batches counts records committed through the write path: one per
	// Mutate batch, and a Clear counts as one.
	Batches uint64
	// Groups counts commit groups: each is one WAL append span (one fsync
	// under fsync=always) and one published snapshot covering every batch
	// in the group. Batches/Groups is the mean group size; Fsyncs/Batches
	// (from DurabilityInfo) is the amortization the grouping bought.
	Groups uint64
	// MaxGroupSize is the largest commit group since the store opened.
	MaxGroupSize uint64
	// GroupSizeBuckets is a histogram of commit-group sizes; bucket i
	// counts groups of size ≤ GroupSizeBounds[i], the last bucket counts
	// the overflow.
	GroupSizeBuckets [groupSizeBuckets]uint64
	// OverlayEntriesCopied and OverlayBytesCopied measure the overlay's
	// cumulative copy-on-write effort (entries copied into fresh bucket
	// versions and an estimate of the bytes those copies retained) across
	// all generations. The per-batch delta is O(batch), independent of
	// overlay size.
	OverlayEntriesCopied uint64
	OverlayBytesCopied   uint64
	// OverlayVersions is the live generation's retained bucket-version
	// count (the churn-memory quantity compaction also triggers on).
	OverlayVersions uint64
}

// WriteInfo snapshots the write-path counters.
func (s *Store) WriteInfo() WriteInfo {
	l := &s.live
	sn := s.Snapshot()
	e, b := sn.Delta.CopyStats()
	wi := WriteInfo{
		Batches:              l.groupedBatches.Load(),
		Groups:               l.groups.Load(),
		MaxGroupSize:         l.maxGroup.Load(),
		OverlayEntriesCopied: l.copiedEntriesPrev.Load() + e,
		OverlayBytesCopied:   l.copiedBytesPrev.Load() + b,
		OverlayVersions:      uint64(sn.Delta.Versions()),
	}
	for i := range wi.GroupSizeBuckets {
		wi.GroupSizeBuckets[i] = l.groupSizes[i].Load()
	}
	return wi
}

// recordGroup updates the commit-group statistics for one group of n
// batches (called under mu).
func (l *liveState) recordGroup(n uint64) {
	l.groups.Add(1)
	l.groupedBatches.Add(n)
	for {
		cur := l.maxGroup.Load()
		if n <= cur || l.maxGroup.CompareAndSwap(cur, n) {
			break
		}
	}
	i := 0
	for i < len(GroupSizeBounds) && n > GroupSizeBounds[i] {
		i++
	}
	l.groupSizes[i].Add(1)
}

// Mutate applies one write batch: dels are removed first, then adds are
// inserted, atomically — no reader ever observes the batch partially
// applied. Triples are validated up front; on error nothing changes.
// When the call returns, every later query sees the new state
// (read-your-writes). Deleting absent triples and inserting present
// ones are no-ops, per SPARQL 1.1 Update semantics.
//
// Concurrent callers group-commit: batches queued while a commit is in
// flight are committed together by the leading writer — one WAL append
// span, one fsync under fsync=always, one published snapshot — so
// durable write throughput scales with writer concurrency instead of
// paying one fsync per batch. Acknowledgement semantics are unchanged:
// when Mutate returns nil the batch is applied and, on a durable store,
// as stable as the fsync policy promises.
func (s *Store) Mutate(adds, dels []rdf.Triple) error {
	if len(adds) == 0 && len(dels) == 0 {
		return nil
	}
	// Validate before enqueueing: a malformed triple must fail only its
	// own caller, never a whole commit group.
	r := wal.Record{Kind: wal.KindMutation, Adds: adds, Dels: dels}
	if err := validateRecord(r); err != nil {
		return err
	}
	return s.submit(r)
}

// Clear atomically replaces the store's contents with an empty
// generation (SPARQL `CLEAR DEFAULT` / `CLEAR ALL`). It joins the commit
// queue like a Mutate batch, so it is logged, ordered and published with
// the batches around it; an in-flight compaction detects the generation
// change and discards its result. A log failure leaves the contents
// untouched.
func (s *Store) Clear() error {
	return s.submit(wal.Record{Kind: wal.KindClear})
}

// submit enqueues one validated record and returns once the group that
// carries it has committed. The first writer to find no leader drains
// the queue, committing everything queued as one group, until the queue
// is empty.
func (s *Store) submit(r wal.Record) error {
	l := &s.live
	req := &commitReq{rec: r, done: make(chan struct{})}
	l.qmu.Lock()
	l.queue = append(l.queue, req)
	if l.leading {
		// A leader is draining the queue; it will commit this record in an
		// upcoming group and close done.
		l.qmu.Unlock()
		<-req.done
		return req.err
	}
	l.leading = true
	for len(l.queue) > 0 {
		group := l.queue
		l.queue = nil
		l.qmu.Unlock()
		recs := make([]wal.Record, len(group))
		for i, q := range group {
			recs[i] = q.rec
		}
		err := s.commit(recs, logLocal)
		for _, q := range group {
			q.err = err
			close(q.done)
		}
		l.qmu.Lock()
	}
	l.leading = false
	l.qmu.Unlock()
	<-req.done // own record was part of a group this leader committed
	return req.err
}

// logMode says how commit logs its records.
type logMode int

const (
	// logLocal assigns epochs and appends to the local log (Mutate, Clear).
	logLocal logMode = iota
	// logExternal appends records that carry the primary's sequences
	// (a follower's ApplyReplicated).
	logExternal
	// logNone logs nothing and claims no compaction: the records come
	// from the log (replay).
	logNone
)

// commit is the store's only write path: it logs recs per mode, applies
// them in order to a copy of the current snapshot, and publishes the
// result once. Mutate, Clear, WAL replay and follower apply all go
// through it. The records must be validated (see validateRecord). The
// epoch advances once per record, so epoch-keyed caches behave exactly
// as if the records had committed individually.
func (s *Store) commit(recs []wal.Record, mode logMode) error {
	l := &s.live
	l.mu.Lock()
	cur := l.snap.Load()

	// Write-ahead discipline at group granularity: every record reaches
	// the log before any of them is applied, and stable storage before
	// any of them is acknowledged. Applying before logging would risk
	// publishing overlay state the log never saw (the shared overlay
	// cannot roll back). Under fsync=always the fsync runs concurrently
	// with applying the group — both must finish before the publish, but
	// neither needs the other — so a commit costs max(fsync, apply)
	// instead of their sum. On an append failure the whole group fails
	// and nothing changes. On an fsync failure the group is applied but
	// never published: readers keep the pre-group snapshot, and the
	// failed sync closed the log, so every later durable write fails
	// before it could touch the overlay.
	var syncErr chan error
	if d := s.dur.Load(); d != nil && mode != logNone {
		var werr error
		if mode == logExternal {
			_, werr = d.log.AppendExternal(recs)
		} else {
			for i := range recs {
				recs[i].Epoch = cur.Epoch + uint64(i) + 1
			}
			_, werr = d.log.AppendBatchNoSync(recs)
		}
		if werr != nil {
			l.mu.Unlock()
			return fmt.Errorf("%w: %w", ErrDurability, werr)
		}
		if mode == logLocal && d.syncAlways {
			syncErr = make(chan error, 1)
			go func() { syncErr <- d.log.Sync() }()
			// Yield so the syncer reaches its fsync syscall now: once it is
			// in the kernel it releases the P, and the applies below run
			// concurrently with the disk flush even on GOMAXPROCS=1.
			runtime.Gosched()
		}
	}

	next := *cur
	var retired []*delta.View
	for _, r := range recs {
		if r.Kind == wal.KindClear {
			retired = append(retired, next.Delta)
			gen := newGeneration((&multigraph.Builder{}).Build(), 0)
			gen.Epoch, gen.Gen = next.Epoch, next.Gen+1
			next = *gen
		} else {
			nv, err := next.Delta.Apply(r.Adds, r.Dels)
			if err != nil {
				l.mu.Unlock()
				return err // unreachable for validated records
			}
			next.Delta = nv
		}
		next.Epoch++
	}
	if syncErr != nil {
		if werr := <-syncErr; werr != nil {
			l.mu.Unlock()
			return fmt.Errorf("%w: %w", ErrDurability, werr)
		}
	}
	// The catch-up log only exists to let an in-flight rebuild see writes
	// that land while it runs; when no compaction is running, the
	// snapshot itself is the durable state. Maintained only once the group
	// is known durable: a record that was never acknowledged must not
	// reach the rebuilt generation. A clear voids the rebuild, so it
	// empties the log.
	for _, r := range recs {
		switch {
		case r.Kind == wal.KindClear:
			l.log = nil
		case l.compacting:
			l.log = append(l.log, wal.Record{
				Kind: r.Kind,
				Adds: append([]rdf.Triple(nil), r.Adds...),
				Dels: append([]rdf.Triple(nil), r.Dels...),
			})
		}
	}
	for _, v := range retired {
		l.retireDelta(v)
	}
	l.snap.Store(&next)
	l.updates.Add(uint64(len(recs)))
	if mode == logLocal {
		l.recordGroup(uint64(len(recs)))
	}
	l.mu.Unlock()
	if mode != logNone {
		s.maybeCompact() // replay's one compaction follows it (AttachWAL)
	}
	return nil
}

// maybeCompact claims a compaction when the overlay has outgrown the
// threshold and runs it in the background.
func (s *Store) maybeCompact() {
	if done := s.live.claimCompaction(false); done != nil {
		go s.runClaimedCompaction(done) //nolint:errcheck // unreachable for validated records
	}
}

// claimCompaction claims the compaction slot and returns the
// cycle's done channel, or nil when a compaction is already running or
// none is due. Without force a compaction is due once the overlay has
// outgrown the threshold; with force (Compact) whenever the overlay is
// non-empty or has interned terms into the base's dictionaries (a batch
// that inserted and then deleted triples with new terms leaves them
// there; only a new generation drops them). The caller must then run
// runClaimedCompaction(done).
func (l *liveState) claimCompaction(force bool) chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.compacting {
		return nil
	}
	sn := l.snap.Load()
	nv := sn.Delta
	if force {
		if nv.Empty() && nv.NumVertices() == sn.Graph.NumVertices() &&
			nv.NumEdgeTypes() == sn.Graph.NumEdgeTypes() && nv.NumAttrs() == sn.Graph.NumAttrs() {
			return nil
		}
	} else if th := l.compactThreshold.Load(); th <= 0 ||
		(int64(nv.Size()) < th && int64(nv.Versions()) < versionsPerEntry*th) {
		return nil
	}
	l.compacting = true
	l.compactDone = make(chan struct{})
	return l.compactDone
}

// runClaimedCompaction runs a compaction cycle claimed with
// claimCompaction, including the post-compaction auto checkpoint.
// compactDone stays set (and done open) until the checkpoint has run, so
// WaitCompaction observers see the whole cycle.
func (s *Store) runClaimedCompaction(done chan struct{}) error {
	l := &s.live
	defer func() {
		close(done)
		l.mu.Lock()
		if l.compactDone == done {
			l.compactDone = nil
		}
		l.mu.Unlock()
	}()
	g, seq, err := s.runCompaction()
	if g != nil {
		s.maybeAutoCheckpoint(g, seq)
	}
	return err
}

// Compact synchronously rebuilds base+delta into a fresh generation and
// swaps it in, refreshing the index ensemble and planner statistics. If
// a compaction is already running it waits for that one instead.
// Compacting an empty overlay is a no-op.
func (s *Store) Compact() error {
	done := s.live.claimCompaction(true)
	if done == nil {
		s.WaitCompaction()
		return nil
	}
	return s.runClaimedCompaction(done)
}

// WaitCompaction blocks until the compaction that is in flight when it
// is called (if any) has finished.
func (s *Store) WaitCompaction() {
	l := &s.live
	l.mu.Lock()
	done := l.compactDone
	l.mu.Unlock()
	if done != nil {
		<-done
	}
}

// runCompaction rebuilds the captured snapshot's merged view into a
// fresh frozen generation off-lock, then swaps it in under the writer
// lock, replaying any mutations that landed during the rebuild onto the
// new base. It returns the base it swapped in and the sequence of the
// last WAL record that base holds (zero without a WAL), or a nil graph
// when a Clear voided the rebuild. The caller must have set l.compacting
// (and owns clearing it, which this function does on every path).
func (s *Store) runCompaction() (*multigraph.Graph, uint64, error) {
	l := &s.live
	start := time.Now()

	l.mu.Lock()
	cur := l.snap.Load()
	var seq uint64
	if d := s.dur.Load(); d != nil {
		seq = d.log.LastSeq()
	}
	// Everything logged so far is already inside cur; the log from here
	// on holds exactly the writes the rebuild will need to replay.
	l.log = nil
	l.mu.Unlock()

	// Offline stage for the new generation — off-lock: readers keep
	// querying the current snapshot, writers keep appending to the log.
	buildStart := time.Now()
	g := cur.Delta.Rebuild()
	next := newGeneration(g, time.Since(buildStart))
	if l.rebuilt != nil {
		l.rebuilt()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.compacting = false
	// compactDone is cleared by the caller once the post-compaction
	// checkpoint (if any) has also finished; clearing it here would let
	// WaitCompaction return between the swap and the checkpoint.
	tail := l.log
	l.log = nil
	cur2 := l.snap.Load()
	if cur2.Gen != cur.Gen {
		// The base changed under us (Clear): the rebuilt generation would
		// resurrect wiped data — discard it.
		return nil, 0, nil
	}
	// Catch up with writes that landed during the rebuild. A batch that
	// raced the initial capture may already be inside cur — replaying the
	// logged sequence in order is idempotent (each triple ends in the
	// state its last operation dictates), so the result is exact.
	for _, m := range tail {
		var err error
		if next.Delta, err = next.Delta.Apply(m.Adds, m.Dels); err != nil {
			return nil, 0, err // validated at commit time; unreachable
		}
	}
	l.retireDelta(cur2.Delta)
	next.Epoch, next.Gen = cur2.Epoch+1, cur2.Gen+1
	l.snap.Store(next)
	l.compactions.Add(1)
	l.lastCompaction.Store(int64(time.Since(start)))
	return g, seq, nil
}
