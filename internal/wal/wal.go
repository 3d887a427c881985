// Package wal implements the write-ahead log behind AMbER's crash-safe
// live updates: an append-only, segmented log of update batches with
// length+CRC32-C-framed records, a configurable fsync policy, replay on
// open, and checkpoint-driven truncation.
//
// Layout: a log directory holds segment files named wal-<firstseq>.seg
// (sixteen hex digits, so lexical order is sequence order) plus an
// optional `checkpoint` file recording the sequence number up to which
// the store's state is durable elsewhere (a checkpointed snapshot).
// Records carry a log sequence number that increases monotonically across
// restarts; replay applies, in order, exactly the records with a sequence
// above the checkpoint.
//
// Torn writes: a crash can leave a partially written frame at the log
// tail. Replay validates each frame's length and checksum and stops at
// the first bad one — the surviving records are a prefix of the
// acknowledged history, which is the strongest guarantee an append-only
// log can give. Open truncates the torn tail (and discards any later
// segments, which can only exist after mid-log corruption) so appending
// resumes from a clean boundary.
//
// Durability policy: SyncAlways fsyncs before Append returns (no
// acknowledged record is ever lost, at one fsync per batch); SyncEvery
// fsyncs in the background at a fixed interval (a crash loses at most the
// last interval); SyncNever leaves syncing to the OS page cache. Every
// policy writes frames straight through to the file — there is no
// user-space buffer — so even SyncNever survives a process kill; only an
// OS crash can lose unsynced records.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Consumer receives replayed or replicated records in sequence order.
// The log's replay on Open and a replication follower's network catch-up
// share this one interface, so the store-side apply path is exercised by
// the same crash-point tests whichever way records arrive.
type Consumer interface {
	Consume(Record) error
}

// ConsumerFunc adapts a plain function to the Consumer interface.
type ConsumerFunc func(Record) error

// Consume calls f(rec).
func (f ConsumerFunc) Consume(rec Record) error { return f(rec) }

// SegmentFile is the write-side surface the log needs from a segment
// file. Production code uses *os.File; fault-injection tests wrap it to
// model torn writes and bit flips (see internal/errorfs).
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs before every Append returns (the default).
	SyncAlways SyncPolicy = iota
	// SyncEvery fsyncs at a fixed interval in the background.
	SyncEvery
	// SyncNever never fsyncs explicitly; the OS flushes when it pleases.
	SyncNever
)

// String renders the policy in the -fsync flag syntax.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncEvery:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses the -fsync flag syntax: "always", "never", or
// "interval=<duration>" (e.g. "interval=100ms"). The empty string means
// SyncAlways.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch {
	case s == "" || s == "always":
		return SyncAlways, 0, nil
	case s == "never":
		return SyncNever, 0, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: bad fsync interval %q", s)
		}
		return SyncEvery, d, nil
	default:
		return 0, 0, fmt.Errorf("wal: unknown fsync policy %q (use always, never or interval=<duration>)", s)
	}
}

// Options tune a log. The zero value selects the documented defaults.
type Options struct {
	// Policy is the fsync policy; default SyncAlways.
	Policy SyncPolicy
	// Interval is the background fsync period for SyncEvery; default 1s.
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the active one exceeds
	// this size; default 16 MiB.
	SegmentBytes int64
	// WrapFile, when set, wraps each newly opened active segment file
	// before the log writes to it. Fault-injection tests use it to model
	// torn writes and silent bit flips under the log.
	WrapFile func(*os.File) SegmentFile
	// InitialSeq, when non-zero, is adopted as the sequence cursor if the
	// log opens with no history at all (no checkpoint marker, no surviving
	// records): lastSeq starts there and the first append lands at
	// InitialSeq+1. Durable opens that loaded a non-WAL base set this to 1
	// so the base "occupies" a sequence — a replication snapshot of the
	// untouched store then reports a non-zero sequence and followers never
	// sit at cursor 0, which the primary must refuse. The stamp persists
	// as a checkpoint marker, so every later open agrees.
	InitialSeq uint64
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	return o
}

// Stats is a point-in-time description of the log, the quantities the
// server's /stats durability section reports.
type Stats struct {
	// Dir is the log directory.
	Dir string
	// Policy renders the effective fsync policy ("always", "never",
	// "interval=<d>").
	Policy string
	// Bytes is the total size of all segment files; Segments their count
	// (including the active one).
	Bytes    int64
	Segments int
	// LastSeq is the sequence number of the most recent record (0 when
	// the log has never held one); CheckpointSeq the sequence up to which
	// records have been truncated away.
	LastSeq       uint64
	CheckpointSeq uint64
	// Appends and Fsyncs count operations since the log was opened.
	Appends uint64
	Fsyncs  uint64
	// Replayed is the number of records replayed when the log was opened.
	Replayed int
	// Checkpoints counts Checkpoint calls since open; LastCheckpoint is
	// the wall-clock time of the most recent one (zero if none ran).
	Checkpoints    uint64
	LastCheckpoint time.Time
}

// segment is one on-disk log file.
type segment struct {
	path  string
	first uint64 // sequence of its first record
	last  uint64 // sequence of its last record (0 while empty)
	bytes int64  // on-disk size
}

// SegmentInfo describes one on-disk segment for readers outside the
// package — the replication streamer walks this view to serve history.
type SegmentInfo struct {
	Path   string
	First  uint64 // sequence of the segment's first record
	Last   uint64 // sequence of its last record (0 while empty)
	Bytes  int64  // on-disk size
	Active bool   // the segment still taking appends
}

const (
	segPrefix      = "wal-"
	segSuffix      = ".seg"
	checkpointName = "checkpoint"
	lockName       = "LOCK"
)

// maxRetainedBuf caps the scratch encoding buffer kept between appends;
// a one-off giant batch must not pin its allocation for the log's life.
const maxRetainedBuf = 1 << 20

func segName(first uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix)
}

func parseSegName(name string) (first uint64, ok bool) {
	hex, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	hex, ok = strings.CutSuffix(hex, segSuffix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	return v, err == nil
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; Append calls are serialized internally (callers typically hold
// their own writer lock anyway).
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	lockf    *os.File    // flock'd LOCK file guarding the directory
	f        SegmentFile // active segment
	active   segment     // active segment metadata
	sealed   []segment   // earlier segments, in sequence order
	lastSeq  uint64
	cpSeq    uint64
	dirty    bool // bytes written since the last fsync
	closed   bool
	appends  uint64
	fsyncs   uint64
	cpCount  uint64
	cpTime   time.Time
	replayed int
	buf      []byte // scratch frame-encoding buffer

	// subs are append-notification channels (capacity 1, coalescing);
	// retain, when set, returns the lowest sequence a reader still needs,
	// pinning segments against checkpoint truncation.
	subs   map[chan struct{}]struct{}
	retain func(lastSeq uint64) uint64

	stop chan struct{} // interval syncer shutdown; nil unless SyncEvery
	done chan struct{}
}

// Open opens (creating if necessary) the log in dir, replays every record
// above the checkpoint through c in sequence order, truncates any torn
// tail, and leaves the log ready for appending. A nil consumer skips
// replay delivery but still scans (the scan is what finds the last
// sequence and the torn tail). A Consume error aborts the open.
func Open(dir string, opts Options, c Consumer) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One writer per directory: two logs appending to the same segments
	// would interleave frames and sequence numbers, and the next replay
	// would silently truncate at the first inconsistency — acknowledged
	// writes from both would vanish. The kernel drops the lock when the
	// holder dies, so crashes never wedge the directory.
	lockf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(lockf); err != nil {
		lockf.Close()
		return nil, fmt.Errorf("wal: directory %s is already in use by another log: %w", dir, err)
	}
	l, err := openLocked(dir, opts, c)
	if err != nil {
		lockf.Close()
		return nil, err
	}
	l.lockf = lockf
	if opts.Policy == SyncEvery {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// openLocked is the body of Open, run while holding the directory lock.
func openLocked(dir string, opts Options, c Consumer) (*Log, error) {
	l := &Log{dir: dir, opts: opts, subs: make(map[chan struct{}]struct{})}
	cpSeq, err := readCheckpoint(filepath.Join(dir, checkpointName))
	if err != nil {
		return nil, err
	}
	l.cpSeq = cpSeq
	l.lastSeq = cpSeq

	names, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Scan segments in order, replaying valid records. The first bad frame
	// ends the valid prefix: its segment is truncated there and every
	// later segment is dropped (they can only hold post-corruption data).
	// prev enforces strictly increasing sequences across the whole log,
	// not just within one segment — a stale or restored-from-backup
	// segment must not replay duplicate or out-of-order records.
	corrupted := false
	var prev uint64
	for _, name := range names {
		path := filepath.Join(dir, name)
		if corrupted {
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			continue
		}
		first, _ := parseSegName(name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		validEnd, last, n, scanErr := l.scanRecords(data, &prev, c)
		if scanErr != nil {
			return nil, scanErr
		}
		if int64(len(data)) > validEnd {
			// Torn or corrupt tail: cut it so appends resume cleanly.
			if err := os.Truncate(path, validEnd); err != nil {
				return nil, err
			}
			corrupted = true
		}
		l.replayed += n
		l.sealed = append(l.sealed, segment{path: path, first: first, last: last, bytes: validEnd})
	}

	// A log with no history at all adopts the caller's synthetic base
	// sequence (see Options.InitialSeq), written durably as a checkpoint
	// marker so the stamp survives restarts. lastSeq == 0 here implies
	// both no checkpoint and no replayed records.
	if opts.InitialSeq > 0 && l.lastSeq == 0 {
		if err := writeCheckpoint(filepath.Join(dir, checkpointName), opts.InitialSeq); err != nil {
			return nil, err
		}
		l.cpSeq = opts.InitialSeq
		l.lastSeq = opts.InitialSeq
	}

	// The newest scanned segment becomes the active one; with none (fresh
	// log, or everything checkpointed away) a new segment starts at
	// lastSeq+1.
	if n := len(l.sealed); n > 0 {
		l.active = l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		var f *os.File
		f, err = os.OpenFile(l.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			l.f = l.wrapFile(f)
		}
	} else {
		err = l.newSegment(l.lastSeq + 1)
	}
	if err != nil {
		return nil, err
	}
	return l, nil
}

// wrapFile applies the fault-injection hook, if any.
func (l *Log) wrapFile(f *os.File) SegmentFile {
	if l.opts.WrapFile != nil {
		return l.opts.WrapFile(f)
	}
	return f
}

// scanRecords replays data's valid records, returning the byte offset of
// the end of the last valid frame, the sequence of the last valid record
// (0 if none), and how many records were delivered to c. prev is the
// cross-segment sequence cursor: records must continue strictly above it.
func (l *Log) scanRecords(data []byte, prev *uint64, c Consumer) (int64, uint64, int, error) {
	var off int64
	var last uint64
	applied := 0
	for {
		rec, n, derr := DecodeFrame(data[off:])
		if derr != nil {
			break
		}
		if rec.Seq <= *prev {
			break // sequences must strictly increase across the whole log
		}
		off += int64(n)
		last = rec.Seq
		*prev = rec.Seq
		if rec.Seq > l.lastSeq {
			l.lastSeq = rec.Seq
		}
		if rec.Seq > l.cpSeq && c != nil {
			if aerr := c.Consume(rec); aerr != nil {
				return 0, 0, 0, fmt.Errorf("wal: replaying record %d: %w", rec.Seq, aerr)
			}
			applied++
		}
	}
	return off, last, applied, nil
}

// listSegments returns segment file names in sequence order (os.ReadDir
// sorts by name, and the fixed-width hex in the name makes that sequence
// order). A gzip archive of a sealed segment, wal-<first>.seg.gz, is an
// error: the log no longer reads archives, and replaying around one
// would silently drop the records it holds.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if plain, ok := strings.CutSuffix(name, ".gz"); ok {
			if _, ok := parseSegName(plain); ok {
				return nil, fmt.Errorf("wal: %s is a gzip-compressed segment, which this log no longer reads; decompress it to %s and reopen", filepath.Join(dir, name), plain)
			}
		}
		if _, ok := parseSegName(name); ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// newSegment creates and activates a fresh segment whose first record
// will carry sequence first. Caller holds mu (or is Open, pre-publish).
func (l *Log) newSegment(first uint64) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if l.f != nil {
		l.sealed = append(l.sealed, l.active)
	}
	l.f = l.wrapFile(f)
	l.active = segment{path: path, first: first}
	return nil
}

// Append assigns the next sequence number to rec, writes its frame, and
// — under SyncAlways — fsyncs before returning. The record is part of the
// durable history from the moment Append returns.
func (l *Log) Append(rec Record) (uint64, error) {
	return l.AppendBatch([]Record{rec})
}

// AppendBatch is the group-commit append: it assigns consecutive
// sequence numbers to recs (in place), encodes every frame into one
// contiguous span, writes the span with a single write, and — under
// SyncAlways — issues one fsync for the whole group before returning,
// amortizing the durability cost across the group. It returns the last
// assigned sequence number.
//
// Failure atomicity: an oversized record is detected before any byte
// reaches the file, so the whole group is rejected and the log stays
// usable. A write or sync failure may leave a torn tail — exactly what
// replay tolerates — and closes the log so nothing is written past it;
// none of the group's records count as acknowledged.
func (l *Log) AppendBatch(recs []Record) (uint64, error) {
	return l.appendBatch(recs, true)
}

// AppendBatchNoSync appends like AppendBatch but skips the SyncAlways
// fsync: the caller takes over the durability barrier — group commit
// overlaps the fsync with applying the group — and must call Sync
// before acknowledging any record of the batch. Under other policies it
// is identical to AppendBatch.
func (l *Log) AppendBatchNoSync(recs []Record) (uint64, error) {
	return l.appendBatch(recs, false)
}

func (l *Log) appendBatch(recs []Record, sync bool) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	for i := range recs {
		recs[i].Seq = l.lastSeq + 1 + uint64(i)
	}
	return l.appendAssigned(recs, sync)
}

// AppendExternal appends records that already carry sequence numbers —
// the replication path, where a follower preserves the primary's
// sequences so stream cursors are cluster-wide and a follower's local
// replay resumes at the primary's offsets. Sequences must be strictly
// increasing and above everything already in the log (gaps are fine;
// replay tolerates them). Sync policy applies as in AppendBatch.
func (l *Log) AppendExternal(recs []Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	prev := l.lastSeq
	for i := range recs {
		if recs[i].Seq <= prev {
			return 0, fmt.Errorf("wal: external record seq %d not above %d", recs[i].Seq, prev)
		}
		prev = recs[i].Seq
	}
	return l.appendAssigned(recs, true)
}

// appendAssigned is the shared append body: it encodes every frame of the
// group (sequences already assigned) into one contiguous span, writes the
// span with a single write, and — under SyncAlways, when sync — issues
// one fsync for the whole group before returning. It returns the last
// appended sequence number. Caller holds mu.
//
// Failure atomicity: an oversized record is detected before any byte
// reaches the file, so the whole group is rejected and the log stays
// usable. A write or sync failure may leave a torn tail — exactly what
// replay tolerates — and closes the log so nothing is written past it;
// none of the group's records count as acknowledged.
func (l *Log) appendAssigned(recs []Record, sync bool) (uint64, error) {
	if len(recs) == 0 {
		return l.lastSeq, nil
	}
	// Give an oversized scratch buffer back after this group, whatever
	// the exit path; one giant batch must not pin its allocation for the
	// log's lifetime.
	defer func() {
		if cap(l.buf) > maxRetainedBuf {
			l.buf = nil
		}
	}()
	l.buf = l.buf[:0]
	for i := range recs {
		mark := len(l.buf)
		l.buf = encodeFrame(l.buf, &recs[i])
		if len(l.buf)-mark-frameHeaderSize > maxPayload {
			// Replay treats frames past maxPayload as corruption; writing
			// one would acknowledge a batch that destroys itself (and
			// everything after it) on recovery.
			return 0, fmt.Errorf("wal: record payload %d bytes exceeds the %d limit", len(l.buf)-mark-frameHeaderSize, maxPayload)
		}
	}
	if l.active.bytes > 0 && l.active.bytes+int64(len(l.buf)) > l.opts.SegmentBytes {
		// Rotate before the group so it stays contiguous in one segment; a
		// group larger than SegmentBytes overshoots, exactly as a single
		// oversized record always has.
		if err := l.rotateLocked(recs[0].Seq); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(l.buf); err != nil {
		// The span may be partially on disk; a torn frame is exactly what
		// replay tolerates, but this process must not ack or write past it.
		l.closeLocked()
		return 0, err
	}
	l.active.bytes += int64(len(l.buf))
	l.active.last = recs[len(recs)-1].Seq
	l.lastSeq = l.active.last
	l.appends += uint64(len(recs))
	l.dirty = true
	if sync && l.opts.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.closeLocked()
			return 0, err
		}
	}
	// Wake stream subscribers; capacity-1 channels coalesce bursts.
	for ch := range l.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return l.lastSeq, nil
}

// rotateLocked seals the active segment (fsyncing it, so sealed segments
// are always fully durable) and starts a new one at first.
func (l *Log) rotateLocked(first uint64) error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	old := l.f
	if err := l.newSegment(first); err != nil {
		return err
	}
	return old.Close()
}

// syncLocked fsyncs the active segment if it has unsynced bytes.
func (l *Log) syncLocked() error {
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs++
	return nil
}

// Sync forces an fsync of the active segment, whatever the policy. A
// failed fsync closes the log: records written before it were never
// acknowledged as durable, and nothing may be written past a failed
// durability barrier.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.syncLocked(); err != nil {
		l.closeLocked()
		return err
	}
	return nil
}

// syncLoop is the SyncEvery background syncer.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				l.syncLocked() //nolint:errcheck // next Append surfaces persistent failures
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// Checkpoint records that the store's state through seq is durable outside
// the log (a saved snapshot), then removes every segment holding only
// records at or below seq. The active segment is rotated first so it can
// be removed too once it qualifies. Replay after a checkpoint applies only
// records above seq.
//
// When a retain hook is installed (SetRetain — replication pins history
// for followers still catching up), the checkpoint marker still advances
// to seq, but segment removal is additionally capped below the hook's
// lowest-needed sequence: retained segments replay harmlessly (records at
// or below the marker are skipped) and keep serving stream resumes.
func (l *Log) Checkpoint(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq > l.lastSeq {
		return fmt.Errorf("wal: checkpoint seq %d beyond last appended %d", seq, l.lastSeq)
	}
	if seq < l.cpSeq {
		return fmt.Errorf("wal: checkpoint seq %d behind existing checkpoint %d", seq, l.cpSeq)
	}
	// Make everything the checkpoint covers durable before declaring it
	// superseded, then persist the checkpoint marker atomically.
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := writeCheckpoint(filepath.Join(l.dir, checkpointName), seq); err != nil {
		return err
	}
	l.cpSeq = seq
	truncSeq := seq
	if l.retain != nil {
		if need := l.retain(l.lastSeq); need > 0 && need-1 < truncSeq {
			truncSeq = need - 1
		}
	}
	// Rotate a non-empty active segment so fully-covered records don't pin
	// the file open forever.
	if l.active.bytes > 0 && l.active.last <= truncSeq {
		if err := l.rotateLocked(l.lastSeq + 1); err != nil {
			return err
		}
	}
	kept := l.sealed[:0]
	for _, seg := range l.sealed {
		if seg.last <= truncSeq {
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.sealed = kept
	l.cpCount++
	l.cpTime = time.Now()
	return nil
}

// SetRetain installs (or, with nil, removes) the segment-retention hook:
// a function that, given the log's last appended sequence, returns the
// lowest sequence number some reader still needs (0 = no constraint).
// Checkpoint never removes a segment containing that sequence or
// anything above it. The hook is called with the log's lock held — it
// must not call back into the log (lastSeq is passed in for exactly that
// reason).
func (l *Log) SetRetain(fn func(lastSeq uint64) uint64) {
	l.mu.Lock()
	l.retain = fn
	l.mu.Unlock()
}

// Subscribe registers an append-notification channel: after each
// successful append a token is sent non-blockingly, so a slow receiver
// sees bursts coalesced into one wakeup. The channel is closed when the
// log closes. Callers must Unsubscribe when done.
func (l *Log) Subscribe() <-chan struct{} {
	ch := make(chan struct{}, 1)
	l.mu.Lock()
	if l.closed {
		close(ch)
	} else {
		l.subs[ch] = struct{}{}
	}
	l.mu.Unlock()
	return ch
}

// Unsubscribe removes a channel registered with Subscribe.
func (l *Log) Unsubscribe(ch <-chan struct{}) {
	l.mu.Lock()
	for c := range l.subs {
		if c == ch {
			delete(l.subs, c)
			break
		}
	}
	l.mu.Unlock()
}

// SegmentView snapshots the on-disk segment layout in sequence order
// (the active segment last), plus the last appended and checkpointed
// sequence numbers. The reported Bytes of the active segment is its
// fully-written frame span — concurrent appends only grow it past the
// snapshot, never invalidate it — so readers may safely consume exactly
// Bytes bytes of that file.
func (l *Log) SegmentView() (segs []SegmentInfo, lastSeq, cpSeq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs = make([]SegmentInfo, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		segs = append(segs, SegmentInfo{Path: s.path, First: s.first, Last: s.last, Bytes: s.bytes})
	}
	segs = append(segs, SegmentInfo{
		Path: l.active.path, First: l.active.first, Last: l.active.last,
		Bytes: l.active.bytes, Active: true,
	})
	return segs, l.lastSeq, l.cpSeq
}

// LastSeq returns the sequence number of the most recent record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	policy := l.opts.Policy.String()
	if l.opts.Policy == SyncEvery {
		policy = "interval=" + l.opts.Interval.String()
	}
	st := Stats{
		Dir:            l.dir,
		Policy:         policy,
		LastSeq:        l.lastSeq,
		CheckpointSeq:  l.cpSeq,
		Appends:        l.appends,
		Fsyncs:         l.fsyncs,
		Replayed:       l.replayed,
		Checkpoints:    l.cpCount,
		LastCheckpoint: l.cpTime,
	}
	for _, seg := range l.sealed {
		st.Bytes += seg.bytes
	}
	st.Bytes += l.active.bytes
	st.Segments = len(l.sealed) + 1
	return st
}

// closeLocked tears down the file handle and stops the background syncer
// (l.stop is never reassigned, so closing it here is race-free with the
// loop's select); caller holds mu. Idempotent via l.closed.
func (l *Log) closeLocked() {
	if l.closed {
		return
	}
	l.closed = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if l.lockf != nil {
		// Closing the descriptor releases the flock, freeing the directory
		// for a successor (e.g. a server reload).
		l.lockf.Close()
		l.lockf = nil
	}
	if l.stop != nil {
		close(l.stop)
	}
	for ch := range l.subs {
		close(ch)
		delete(l.subs, ch)
	}
}

// Close fsyncs and closes the log, waiting for the background syncer (if
// any) to exit — including when an earlier Append/Sync failure already
// closed the files internally. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	var err error
	if !l.closed {
		err = l.syncLocked()
		l.closeLocked()
	}
	done := l.done
	l.mu.Unlock()
	if done != nil {
		<-done
	}
	return err
}

// ---- checkpoint file ----------------------------------------------------

// The checkpoint file is one line "amber-wal v1 <seq> <crc32c-of-seq>\n",
// written to a temp file and renamed into place so it is atomically either
// the old or the new checkpoint. A corrupt file is an error — replaying
// below a real checkpoint could resurrect pre-CLEAR state, so guessing is
// worse than refusing.

// WriteCheckpointFile writes dir's checkpoint marker directly, for
// callers bootstrapping a log directory from a replicated snapshot: a
// subsequent Open starts with lastSeq = seq and replays nothing below it.
// The directory must not have an open log.
func WriteCheckpointFile(dir string, seq uint64) error {
	return writeCheckpoint(filepath.Join(dir, checkpointName), seq)
}

// CheckpointSeq returns the sequence recorded in dir's checkpoint file
// (0 if none), without opening the log.
func CheckpointSeq(dir string) (uint64, error) {
	return readCheckpoint(filepath.Join(dir, checkpointName))
}

func writeCheckpoint(path string, seq uint64) error {
	body := strconv.FormatUint(seq, 10)
	line := fmt.Sprintf("amber-wal v1 %s %08x\n", body, crc32.Checksum([]byte(body), crcTable))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(f, line); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

func readCheckpoint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) != 4 || fields[0] != "amber-wal" || fields[1] != "v1" {
		return 0, fmt.Errorf("wal: malformed checkpoint file %s", path)
	}
	seq, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: malformed checkpoint seq in %s: %w", path, err)
	}
	crc, err := strconv.ParseUint(fields[3], 16, 32)
	if err != nil || uint32(crc) != crc32.Checksum([]byte(fields[2]), crcTable) {
		return 0, fmt.Errorf("wal: checkpoint file %s fails its checksum", path)
	}
	return seq, nil
}

// SyncDir fsyncs a directory so renames and removals inside it are
// durable. Best-effort on platforms where directories cannot be synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}
