package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// errGone marks a stream request refused because the primary truncated
// the requested history; the follower resyncs from a snapshot.
var errGone = errors.New("repl: requested history truncated on primary")

// FollowerOptions configure a follower. Dir and Primary are required.
type FollowerOptions struct {
	// Dir is the follower's own durable directory: its local WAL (with the
	// primary's sequence numbers preserved) plus checkpointed snapshots,
	// so a restarted follower recovers locally and resumes the stream
	// where it left off instead of re-downloading history.
	Dir string
	// Primary is the primary's base URL (e.g. http://primary:7171).
	Primary string
	// ID names this follower in the primary's ack registry; default is
	// the hostname plus the directory base name.
	ID string
	// Fsync, SegmentBytes, CheckpointOnCompact and WrapWALFile mirror
	// amber.DurabilityOptions for the local directory.
	Fsync               string
	SegmentBytes        int64
	CheckpointOnCompact bool
	WrapWALFile         func(*os.File) wal.SegmentFile
	// AckInterval is how often the follower reports its applied position
	// to the primary. Default 1s.
	AckInterval time.Duration
	// BackoffMin and BackoffMax bound the jittered exponential reconnect
	// backoff. Defaults 100ms and 5s.
	BackoffMin, BackoffMax time.Duration
	// OnSwap is called whenever the follower replaces its database object
	// (resync from snapshot, or reopen after a local WAL fault); the
	// serving layer hot-swaps to the new object.
	OnSwap func(*amber.DB)
	// Client is the HTTP client for stream, snapshot and ack requests;
	// default http.DefaultClient.
	Client *http.Client
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.ID == "" {
		host, _ := os.Hostname()
		o.ID = host + ":" + filepath.Base(o.Dir)
	}
	if o.AckInterval <= 0 {
		o.AckInterval = time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	o.Primary = strings.TrimRight(o.Primary, "/")
	return o
}

// Follower pulls the primary's WAL stream, appends the records into its
// own local WAL (preserving the primary's sequence numbers), and applies
// them into its store through the same consumer path startup replay
// uses. Reads served from the follower are stale by exactly the gap
// between its applied epoch and the primary's — observable via
// AppliedEpoch and the amber_repl_lag_* metrics.
type Follower struct {
	opts FollowerOptions

	mu     sync.Mutex // guards db swaps and cursor
	db     *amber.DB
	cursor uint64 // last applied primary sequence

	appliedEpoch   atomic.Uint64 // primary-comparable epoch (Record.Epoch)
	primaryLastSeq atomic.Uint64
	primaryNano    atomic.Int64 // primary clock at last heartbeat
	connected      atomic.Bool
	reconnects     atomic.Uint64
	resyncs        atomic.Uint64
	appliedRecs    atomic.Uint64
	appliedBytes   atomic.Uint64
	lastAckSeq     atomic.Uint64
	lastAckAt      atomic.Int64
	localReopens   atomic.Uint64

	epochMu sync.Mutex
	epochCh chan struct{} // closed and replaced whenever progress lands
}

// NewFollower opens (or creates) the follower's local durable directory
// and recovers its replication cursor from the local WAL. Run starts the
// pull loop.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" || opts.Primary == "" {
		return nil, errors.New("repl: follower needs Dir and Primary")
	}
	f := &Follower{opts: opts}
	db, err := f.openLocal()
	if err != nil {
		return nil, err
	}
	f.db = db
	f.cursor = db.Durability().LastSeq
	return f, nil
}

func (f *Follower) openLocal() (*amber.DB, error) {
	return amber.OpenDurable(f.opts.Dir, &amber.DurabilityOptions{
		Fsync:               f.opts.Fsync,
		SegmentBytes:        f.opts.SegmentBytes,
		CheckpointOnCompact: f.opts.CheckpointOnCompact,
		WrapWALFile:         f.opts.WrapWALFile,
	})
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// DB returns the follower's current database object. It changes on
// resync or local reopen; serving layers should prefer OnSwap.
func (f *Follower) DB() *amber.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// PrimaryURL reports the primary's base URL (for redirecting writes).
func (f *Follower) PrimaryURL() string { return f.opts.Primary }

// ID reports the follower's identity in the primary's registry.
func (f *Follower) ID() string { return f.opts.ID }

// AppliedEpoch reports the primary epoch the follower has applied
// through — the staleness bound readers observe via X-Epoch.
func (f *Follower) AppliedEpoch() uint64 { return f.appliedEpoch.Load() }

// Cursor reports the last applied primary WAL sequence.
func (f *Follower) Cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// Run pulls the stream until ctx is cancelled, reconnecting with
// jittered exponential backoff across primary restarts and resyncing
// from a snapshot whenever the primary has truncated the history the
// cursor needs.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.opts.BackoffMin
	for {
		progressed, err := f.streamOnce(ctx)
		f.connected.Store(false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, errGone) {
			f.logf("repl: cursor %d truncated on primary, resyncing from snapshot", f.Cursor())
			if rerr := f.resync(ctx); rerr != nil {
				f.logf("repl: resync failed: %v", rerr)
			} else {
				backoff = f.opts.BackoffMin
				continue
			}
		} else if err != nil {
			f.logf("repl: stream ended: %v", err)
		}
		if progressed {
			backoff = f.opts.BackoffMin
		}
		f.reconnects.Add(1)
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if backoff *= 2; backoff > f.opts.BackoffMax {
			backoff = f.opts.BackoffMax
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
	}
}

// streamOnce runs one stream connection to completion. progressed
// reports whether any message was applied (resets the backoff).
func (f *Follower) streamOnce(ctx context.Context) (progressed bool, err error) {
	u := fmt.Sprintf("%s/repl/stream?from=%d&id=%s",
		f.opts.Primary, f.Cursor(), url.QueryEscape(f.opts.ID))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return false, errGone
	default:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return false, fmt.Errorf("repl: stream request: %s", resp.Status)
	}
	f.connected.Store(true)

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	batch := make([]wal.Record, 0, 256)
	var batchBytes int
	for {
		msg, err := readMessage(br)
		if err != nil {
			return progressed, err
		}
		batch, batchBytes = batch[:0], 0
		f.observe(msg, &batch, &batchBytes)
		// Drain whatever is already buffered so a burst applies as one
		// group commit instead of 1 fsync per record.
		for len(batch) < cap(batch) {
			m, ok, derr := bufferedMessage(br)
			if derr != nil {
				return progressed, derr
			}
			if !ok {
				break
			}
			f.observe(m, &batch, &batchBytes)
		}
		if len(batch) > 0 {
			if err := f.apply(batch, batchBytes); err != nil {
				return progressed, err
			}
			progressed = true
		}
		f.maybeAck(ctx, false)
	}
}

// observe folds one message into the pending batch (records) or the
// position trackers (heartbeats).
func (f *Follower) observe(msg message, batch *[]wal.Record, batchBytes *int) {
	switch msg.kind {
	case msgRecord:
		*batch = append(*batch, msg.rec)
		*batchBytes += msg.frameLen
	case msgHeartbeat:
		f.primaryLastSeq.Store(msg.hb.lastSeq)
		f.primaryNano.Store(msg.hb.unixNano)
		// Compaction and clear bump the primary's epoch without a WAL
		// record; adopt the heartbeat epoch only when fully caught up, so
		// the epoch never claims state the follower hasn't applied.
		if f.Cursor() == msg.hb.lastSeq {
			f.advanceEpoch(msg.hb.epoch)
		}
	}
}

// apply appends the batch to the local WAL and applies it to the store.
// A durability failure (the local log died, e.g. a torn write closed it)
// reopens the local directory — recovery truncates the torn tail — and
// the caller reconnects from the recovered cursor.
func (f *Follower) apply(batch []wal.Record, batchBytes int) error {
	f.mu.Lock()
	db := f.db
	f.mu.Unlock()
	if err := db.ApplyReplicated(batch); err != nil {
		if errors.Is(err, amber.ErrDurability) {
			f.logf("repl: local WAL failure, reopening: %v", err)
			if rerr := f.reopenLocal(); rerr != nil {
				return fmt.Errorf("repl: reopen after WAL failure: %w (cause: %v)", rerr, err)
			}
			return err
		}
		return err
	}
	last := batch[len(batch)-1]
	f.mu.Lock()
	f.cursor = last.Seq
	f.mu.Unlock()
	f.appliedRecs.Add(uint64(len(batch)))
	f.appliedBytes.Add(uint64(batchBytes))
	f.advanceEpoch(last.Epoch)
	return nil
}

// reopenLocal closes and reopens the local durable directory after a
// WAL fault, recovering the cursor from whatever survived on disk.
func (f *Follower) reopenLocal() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Close() //nolint:errcheck // already failed; recovery follows
	db, err := f.openLocal()
	if err != nil {
		return err
	}
	f.db = db
	f.cursor = db.Durability().LastSeq
	f.localReopens.Add(1)
	if f.opts.OnSwap != nil {
		f.opts.OnSwap(db)
	}
	return nil
}

// resync bootstraps a fresh base from the primary's snapshot endpoint:
// download, wipe the local log (its history predates the snapshot),
// install the snapshot as the checkpointed base, and reopen. The old
// database object keeps serving reads until the swap.
func (f *Follower) resync(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.Primary+"/repl/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("repl: snapshot request: %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Amber-Seq"), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response lacks X-Amber-Seq: %w", err)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Amber-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("repl: snapshot response lacks X-Amber-Epoch: %w", err)
	}
	// Land the body in Dir so the final install is a same-filesystem
	// rename, atomic like every other base-snapshot update.
	tmp, err := os.CreateTemp(f.opts.Dir, "resync-*.snap.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	f.db.Close() //nolint:errcheck // releases the directory lock
	if err := wipeWAL(f.opts.Dir); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), core.CheckpointSnapshotPath(f.opts.Dir)); err != nil {
		return err
	}
	if err := wal.WriteCheckpointFile(f.opts.Dir, seq); err != nil {
		return err
	}
	db, err := f.openLocal()
	if err != nil {
		return err
	}
	f.db = db
	f.cursor = seq
	f.resyncs.Add(1)
	f.advanceEpoch(epoch)
	if f.opts.OnSwap != nil {
		f.opts.OnSwap(db)
	}
	f.logf("repl: resynced from snapshot at seq %d epoch %d", seq, epoch)
	return nil
}

// wipeWAL removes the directory's WAL segments and checkpoint marker;
// the snapshot about to be installed supersedes them all.
func wipeWAL(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") || name == "checkpoint" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return wal.SyncDir(dir)
}

// maybeAck reports the applied position to the primary when it has
// advanced and the ack interval elapsed (or force). Best-effort: a lost
// ack only delays truncation, never correctness.
func (f *Follower) maybeAck(ctx context.Context, force bool) {
	cur := f.Cursor()
	if cur == f.lastAckSeq.Load() {
		return
	}
	now := time.Now().UnixNano()
	caughtUp := cur >= f.primaryLastSeq.Load()
	if !force && !caughtUp && now-f.lastAckAt.Load() < int64(f.opts.AckInterval) {
		return
	}
	u := fmt.Sprintf("%s/repl/ack?id=%s&seq=%d&epoch=%d",
		f.opts.Primary, url.QueryEscape(f.opts.ID), cur, f.AppliedEpoch())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	f.lastAckSeq.Store(cur)
	f.lastAckAt.Store(now)
}

// advanceEpoch moves the applied epoch forward monotonically and wakes
// WaitEpoch parkers.
func (f *Follower) advanceEpoch(epoch uint64) {
	for {
		cur := f.appliedEpoch.Load()
		if epoch <= cur {
			return
		}
		if f.appliedEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	f.epochMu.Lock()
	if f.epochCh != nil {
		close(f.epochCh)
		f.epochCh = nil
	}
	f.epochMu.Unlock()
}

func (f *Follower) epochChan() <-chan struct{} {
	f.epochMu.Lock()
	defer f.epochMu.Unlock()
	if f.epochCh == nil {
		f.epochCh = make(chan struct{})
	}
	return f.epochCh
}

// WaitEpoch blocks until the follower has applied through epoch, the
// timeout expires, or ctx is cancelled, reporting whether the epoch was
// reached. Serving layers use it for X-Min-Epoch read-your-writes.
func (f *Follower) WaitEpoch(ctx context.Context, epoch uint64, timeout time.Duration) bool {
	if f.AppliedEpoch() >= epoch {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ch := f.epochChan()
		if f.AppliedEpoch() >= epoch {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return f.AppliedEpoch() >= epoch
		case <-ctx.Done():
			return false
		}
	}
}

// LagSeqs reports how many primary sequences the follower is behind
// (0 when caught up or before the first heartbeat).
func (f *Follower) LagSeqs() uint64 {
	last := f.primaryLastSeq.Load()
	cur := f.Cursor()
	if last <= cur {
		return 0
	}
	return last - cur
}

// LagSeconds estimates the staleness age: time since the primary clock
// reading of the last heartbeat, when the follower is behind (0 when
// caught up). Cross-host clock skew applies.
func (f *Follower) LagSeconds() float64 {
	if f.LagSeqs() == 0 {
		return 0
	}
	nano := f.primaryNano.Load()
	if nano == 0 {
		return 0
	}
	d := time.Since(time.Unix(0, nano))
	if d < 0 {
		return 0
	}
	return d.Seconds()
}

// StatsSection renders the follower's /stats replication section.
func (f *Follower) StatsSection() map[string]any {
	return map[string]any{
		"role":             "follower",
		"id":               f.opts.ID,
		"primary":          f.opts.Primary,
		"connected":        f.connected.Load(),
		"cursor_seq":       f.Cursor(),
		"primary_last_seq": f.primaryLastSeq.Load(),
		"lag_seqs":         f.LagSeqs(),
		"lag_seconds":      f.LagSeconds(),
		"applied_epoch":    f.AppliedEpoch(),
		"applied_records":  f.appliedRecs.Load(),
		"applied_bytes":    f.appliedBytes.Load(),
		"reconnects":       f.reconnects.Load(),
		"resyncs":          f.resyncs.Load(),
		"local_reopens":    f.localReopens.Load(),
	}
}

// RegisterMetrics adds the follower-side amber_repl_* series to r.
func (f *Follower) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("amber_repl_connected", "1 while the replication stream is connected.",
		func() float64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("amber_repl_lag_seqs", "Primary WAL sequences not yet applied locally.",
		func() float64 { return float64(f.LagSeqs()) })
	r.GaugeFunc("amber_repl_lag_seconds", "Estimated staleness age of the served state.",
		f.LagSeconds)
	r.GaugeFunc("amber_repl_applied_epoch", "Primary epoch the follower has applied through.",
		func() float64 { return float64(f.AppliedEpoch()) })
	r.CounterFunc("amber_repl_applied_records_total", "Replicated records applied locally.",
		func() float64 { return float64(f.appliedRecs.Load()) })
	r.CounterFunc("amber_repl_applied_bytes_total", "Replicated record bytes applied locally.",
		func() float64 { return float64(f.appliedBytes.Load()) })
	r.CounterFunc("amber_repl_reconnects_total", "Stream reconnect attempts.",
		func() float64 { return float64(f.reconnects.Load()) })
	r.CounterFunc("amber_repl_resyncs_total", "Snapshot resyncs after history truncation.",
		func() float64 { return float64(f.resyncs.Load()) })
}

// Close closes the follower's local database (its WAL). Run should be
// cancelled first.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db.Close()
}
