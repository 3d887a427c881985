package repl

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// PrimaryOptions tune the replication primary. The zero value selects
// the documented defaults.
type PrimaryOptions struct {
	// RetainSeqs caps how much WAL history a lagging (or dead) follower
	// can pin against checkpoint truncation: the retention floor never
	// drops below lastSeq-RetainSeqs+1, so a follower further behind than
	// that must resync from a snapshot instead of blocking truncation
	// forever. Default 1<<20 records.
	RetainSeqs uint64
	// Heartbeat is the idle-stream heartbeat period. Default 1s.
	Heartbeat time.Duration
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	if o.RetainSeqs == 0 {
		o.RetainSeqs = 1 << 20
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	return o
}

// followerState is the primary's book-keeping for one follower, keyed by
// the follower's self-chosen id. Ack is the highest sequence the
// follower has confirmed applying (via /repl/ack or its stream-connect
// cursor); the minimum across followers gates WAL truncation.
type followerState struct {
	Ack       uint64
	Epoch     uint64
	Addr      string
	LastSeen  time.Time
	Streaming int // open stream connections for this id
}

// Primary serves a durable database's WAL to followers. It installs a
// retention hook on the log so Checkpoint keeps every segment a
// registered follower still needs (bounded by RetainSeqs), and exposes
// the /repl/ endpoints via Handler.
type Primary struct {
	db         *amber.DB
	log        *wal.Log
	opts       PrimaryOptions
	baseLoaded bool

	mu        sync.Mutex
	followers map[string]*followerState

	streamsStarted atomic.Uint64
	streamsActive  atomic.Int64
	bytesShipped   atomic.Uint64
	recsShipped    atomic.Uint64
	snapshots      atomic.Uint64
}

// NewPrimary wraps db, which must have been opened durably, as a
// replication primary and installs its WAL-retention hook.
func NewPrimary(db *amber.DB, opts PrimaryOptions) (*Primary, error) {
	log := db.WAL()
	if log == nil {
		return nil, amber.ErrNotDurable
	}
	p := &Primary{
		db:        db,
		log:       log,
		opts:      opts.withDefaults(),
		followers: make(map[string]*followerState),
		// A non-empty base (bootstrap source or checkpoint snapshot) is
		// state the WAL cannot replay; a follower starting from sequence
		// zero would silently miss it, so such requests get 410 → resync.
		baseLoaded: db.Durability().BaseLoaded,
	}
	log.SetRetain(p.retainFloor)
	return p, nil
}

// Close uninstalls the retention hook; checkpoints truncate freely again.
func (p *Primary) Close() {
	p.log.SetRetain(nil)
}

// retainFloor is the wal retention hook: the lowest sequence some
// follower still needs, or 0 for no constraint. Called with the log's
// mutex held, so it must not call back into the log.
func (p *Primary) retainFloor(lastSeq uint64) uint64 {
	p.mu.Lock()
	minAck := uint64(math.MaxUint64)
	for _, f := range p.followers {
		if f.Ack < minAck {
			minAck = f.Ack
		}
	}
	p.mu.Unlock()
	if minAck == math.MaxUint64 {
		return 0
	}
	need := minAck + 1
	// A dead follower pins at most RetainSeqs of history; anything further
	// behind resyncs from a snapshot (410 on its next stream request).
	if lastSeq > p.opts.RetainSeqs {
		if floor := lastSeq - p.opts.RetainSeqs + 1; need < floor {
			need = floor
		}
	}
	return need
}

// Handler returns the /repl/ endpoint mux. The server mounts it at
// "/repl/"; paths are absolute so the mux composes with the server's.
func (p *Primary) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/repl/stream", p.handleStream)
	mux.HandleFunc("/repl/snapshot", p.handleSnapshot)
	mux.HandleFunc("/repl/ack", p.handleAck)
	return mux
}

// touch records a sighting of follower id, creating it if new, and
// advances its ack monotonically. Caller does not hold p.mu.
func (p *Primary) touch(id, addr string, ack, epoch uint64, dStream int) *followerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.followers[id]
	if f == nil {
		f = &followerState{}
		p.followers[id] = f
	}
	if ack > f.Ack {
		f.Ack = ack
	}
	if epoch > f.Epoch {
		f.Epoch = epoch
	}
	if addr != "" {
		f.Addr = addr
	}
	f.LastSeen = time.Now()
	f.Streaming += dStream
	return f
}

// oldestSeq reports the first sequence still present in the log's
// segments (lastSeq+1 when the log is empty or fully truncated).
func (p *Primary) oldestSeq() uint64 {
	segs, lastSeq, _ := p.log.SegmentView()
	for _, s := range segs {
		if s.Last > 0 {
			return s.First
		}
	}
	return lastSeq + 1
}

// handleStream serves the replication byte stream: every record above
// ?from, then live tail with heartbeats, until the client disconnects.
func (p *Primary) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil && q.Get("from") != "" {
		http.Error(w, "repl: bad from", http.StatusBadRequest)
		return
	}
	id := q.Get("id")
	if id == "" {
		id = r.RemoteAddr
	}
	if oldest := p.oldestSeq(); from+1 < oldest || (from == 0 && p.baseLoaded) {
		// History below the cursor is gone — truncated away, or folded
		// into a base the WAL never carried; the follower must resync.
		w.Header().Set("X-Amber-Oldest-Seq", strconv.FormatUint(oldest, 10))
		http.Error(w, "repl: requested history truncated; resync from /repl/snapshot", http.StatusGone)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "repl: streaming unsupported", http.StatusInternalServerError)
		return
	}

	// Registering with Ack=from pins history for this follower before the
	// first explicit ack arrives; the retention hook sees it immediately.
	p.touch(id, r.RemoteAddr, from, 0, +1)
	defer p.touch(id, "", 0, 0, -1)
	p.streamsStarted.Add(1)
	p.streamsActive.Add(1)
	defer p.streamsActive.Add(-1)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	sub := p.log.Subscribe()
	defer p.log.Unsubscribe(sub)
	tick := time.NewTicker(p.opts.Heartbeat)
	defer tick.Stop()

	cur := &streamCursor{seq: from}
	ctx := r.Context()
	for {
		if err := p.shipAvailable(w, cur); err != nil {
			return // client gone, or history vanished under us
		}
		if err := p.writeHeartbeat(w); err != nil {
			return
		}
		flusher.Flush()
		select {
		case <-ctx.Done():
			return
		case _, open := <-sub:
			if !open {
				return // log closed (shutdown)
			}
		case <-tick.C:
		}
	}
}

func (p *Primary) writeHeartbeat(w io.Writer) error {
	hb := heartbeat{
		lastSeq:  p.log.LastSeq(),
		epoch:    p.db.Epoch(),
		unixNano: time.Now().UnixNano(),
	}
	_, err := w.Write(appendHeartbeat(nil, hb))
	if err == nil {
		p.bytesShipped.Add(1 + heartbeatLen)
	}
	return err
}

// streamCursor tracks one stream's position: the last shipped sequence,
// plus a byte offset into the active segment so tailing an append is an
// O(new bytes) read instead of a rescan of the whole segment.
type streamCursor struct {
	seq  uint64
	path string // active segment the offset belongs to
	off  int64
}

// shipAvailable writes every logged record with sequence above cur.seq
// to w, walking the segment view: every segment is read up to its
// snapshotted frame-complete length, the active one from the cursor's
// offset when the stream is already tailing it. A segment file that
// disappears mid-read lost a race with Checkpoint; the view is re-fetched
// and the walk retried, so the truncation check below sees the removal.
func (p *Primary) shipAvailable(w io.Writer, cur *streamCursor) error {
retry:
	for {
		segs, lastSeq, _ := p.log.SegmentView()
		if cur.seq >= lastSeq {
			return nil
		}
		// If truncation (bounded by RetainSeqs) removed history this stream
		// still needed, shipping onward would smuggle a silent gap into the
		// follower. Kill the stream instead: the reconnect asks from the
		// follower's durable cursor, gets 410, and resyncs from a snapshot.
		for _, seg := range segs {
			if seg.Last > 0 {
				if cur.seq+1 < seg.First {
					return fmt.Errorf("repl: history from %d truncated (oldest %d)", cur.seq+1, seg.First)
				}
				break
			}
		}
		for _, seg := range segs {
			if seg.Last <= cur.seq || seg.Bytes == 0 {
				continue
			}
			var base int64 // byte offset of data[0] within the segment
			if seg.Active && seg.Path == cur.path && cur.off > 0 && cur.off <= seg.Bytes {
				base = cur.off
			}
			data, err := readFileRange(seg.Path, base, seg.Bytes)
			if err != nil {
				if os.IsNotExist(err) {
					continue retry // Checkpoint removed it; re-list
				}
				return err
			}
			var off int64
			for off < int64(len(data)) {
				rec, n, derr := wal.DecodeFrame(data[off:])
				if derr != nil {
					return fmt.Errorf("repl: segment %s invalid at offset %d: %w", seg.Path, base+off, derr)
				}
				frame := data[off : off+int64(n)]
				off += int64(n)
				if rec.Seq <= cur.seq {
					continue
				}
				if _, err := w.Write([]byte{msgRecord}); err != nil {
					return err
				}
				if _, err := w.Write(frame); err != nil {
					return err
				}
				cur.seq = rec.Seq
				p.recsShipped.Add(1)
				p.bytesShipped.Add(uint64(1 + len(frame)))
			}
			if seg.Active {
				cur.path = seg.Path
				cur.off = base + off
			}
		}
		return nil
	}
}

// readFileRange reads path's bytes [from, to). The upper bound comes
// from SegmentView's frame-complete snapshot, so concurrent appends past
// it are ignored rather than half-read.
func readFileRange(path string, from, to int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if to <= from {
		return nil, nil
	}
	buf := make([]byte, to-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, err
	}
	return buf, nil
}

// handleSnapshot serves a full base snapshot for follower bootstrap and
// resync. The body is buffered to a temp file first so the covered WAL
// sequence and epoch — known only after the capture — can travel as
// response headers ahead of the body.
func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	tmp, err := os.CreateTemp("", "amber-replica-*.snap")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	seq, epoch, err := p.db.SaveReplica(tmp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	size, err := tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	p.snapshots.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("X-Amber-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("X-Amber-Epoch", strconv.FormatUint(epoch, 10))
	io.Copy(w, tmp) //nolint:errcheck // client disconnect mid-body is its problem
}

// handleAck records a follower's applied position, unblocking checkpoint
// truncation up to the minimum across followers.
func (p *Primary) handleAck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "repl: POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		http.Error(w, "repl: missing id", http.StatusBadRequest)
		return
	}
	seq, err := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err != nil {
		http.Error(w, "repl: bad seq", http.StatusBadRequest)
		return
	}
	epoch, _ := strconv.ParseUint(q.Get("epoch"), 10, 64)
	p.touch(id, "", seq, epoch, 0)
	w.WriteHeader(http.StatusNoContent)
}

// MinAck reports the lowest acknowledged sequence across followers
// (lastSeq when there are none, i.e. nothing is pinned).
func (p *Primary) MinAck() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	minAck := uint64(math.MaxUint64)
	for _, f := range p.followers {
		if f.Ack < minAck {
			minAck = f.Ack
		}
	}
	if minAck == math.MaxUint64 {
		return p.log.LastSeq()
	}
	return minAck
}

// Followers snapshots the follower registry, keyed by follower id.
func (p *Primary) Followers() map[string]followerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]followerState, len(p.followers))
	for id, f := range p.followers {
		out[id] = *f
	}
	return out
}

// StatsSection renders the primary's /stats replication section.
func (p *Primary) StatsSection() map[string]any {
	fws := p.Followers()
	ids := make([]string, 0, len(fws))
	for id := range fws {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	followers := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		f := fws[id]
		followers = append(followers, map[string]any{
			"id":        id,
			"ack_seq":   f.Ack,
			"epoch":     f.Epoch,
			"addr":      f.Addr,
			"last_seen": f.LastSeen.UTC().Format(time.RFC3339Nano),
			"streams":   f.Streaming,
		})
	}
	return map[string]any{
		"role":                   "primary",
		"last_seq":               p.log.LastSeq(),
		"min_ack_seq":            p.MinAck(),
		"followers":              followers,
		"streams_started":        p.streamsStarted.Load(),
		"streams_active":         p.streamsActive.Load(),
		"records_shipped":        p.recsShipped.Load(),
		"bytes_shipped":          p.bytesShipped.Load(),
		"snapshots_served":       p.snapshots.Load(),
		"retain_seqs":            p.opts.RetainSeqs,
		"heartbeat_interval_sec": p.opts.Heartbeat.Seconds(),
	}
}

// RegisterMetrics adds the primary-side amber_repl_* series to r.
func (p *Primary) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("amber_repl_followers", "Followers known to the replication primary.",
		func() float64 { p.mu.Lock(); defer p.mu.Unlock(); return float64(len(p.followers)) })
	r.GaugeFunc("amber_repl_min_ack_seq", "Lowest follower-acknowledged WAL sequence (gates truncation).",
		func() float64 { return float64(p.MinAck()) })
	r.GaugeFunc("amber_repl_streams_active", "Replication streams currently connected.",
		func() float64 { return float64(p.streamsActive.Load()) })
	r.CounterFunc("amber_repl_streams_started_total", "Replication stream connections accepted.",
		func() float64 { return float64(p.streamsStarted.Load()) })
	r.CounterFunc("amber_repl_records_shipped_total", "WAL records shipped to followers.",
		func() float64 { return float64(p.recsShipped.Load()) })
	r.CounterFunc("amber_repl_bytes_shipped_total", "Stream bytes shipped to followers (records and heartbeats).",
		func() float64 { return float64(p.bytesShipped.Load()) })
	r.CounterFunc("amber_repl_snapshots_served_total", "Bootstrap/resync snapshots served to followers.",
		func() float64 { return float64(p.snapshots.Load()) })
}
