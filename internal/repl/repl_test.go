package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	amber "repro"
	"repro/internal/errorfs"
	"repro/internal/server"
)

// testPrimary is an in-process primary: durable database, replication
// wrapper, and a SPARQL server with /repl/ mounted, on an httptest
// listener.
type testPrimary struct {
	db  *amber.DB
	rep *Primary
	srv *server.Server
	ts  *httptest.Server
}

func startPrimary(t *testing.T, opts PrimaryOptions, dur *amber.DurabilityOptions) *testPrimary {
	t.Helper()
	if dur == nil {
		dur = &amber.DurabilityOptions{Fsync: "never"}
	}
	db, err := amber.OpenDurable(t.TempDir(), dur)
	if err != nil {
		t.Fatalf("primary OpenDurable: %v", err)
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 25 * time.Millisecond
	}
	rep, err := NewPrimary(db, opts)
	if err != nil {
		t.Fatalf("NewPrimary: %v", err)
	}
	srv := server.New(db, server.Config{Replication: rep})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		db.Close() //nolint:errcheck
	})
	return &testPrimary{db: db, rep: rep, srv: srv, ts: ts}
}

// testFollower is an in-process follower: local durable replica
// directory, pull loop, and a read-only SPARQL server.
type testFollower struct {
	f      *Follower
	srv    *server.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

func startFollower(t *testing.T, primaryURL, id string, mutate func(*FollowerOptions)) *testFollower {
	t.Helper()
	tf := &testFollower{}
	opts := FollowerOptions{
		Dir:         t.TempDir(),
		Primary:     primaryURL,
		ID:          id,
		Fsync:       "never",
		AckInterval: 20 * time.Millisecond,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  200 * time.Millisecond,
		Logf:        t.Logf,
		OnSwap: func(db *amber.DB) {
			if tf.srv != nil {
				tf.srv.Swap(db)
			}
		},
	}
	if mutate != nil {
		mutate(&opts)
	}
	f, err := NewFollower(opts)
	if err != nil {
		t.Fatalf("NewFollower(%s): %v", id, err)
	}
	tf.f = f
	tf.srv = server.New(f.DB(), server.Config{Follower: f})
	tf.ts = httptest.NewServer(tf.srv)
	ctx, cancel := context.WithCancel(context.Background())
	tf.cancel = cancel
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx) //nolint:errcheck // exits on cancel
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		tf.ts.Close()
		f.Close() //nolint:errcheck
	})
	return tf
}

func sparqlUpdate(t *testing.T, baseURL, update string) *http.Response {
	t.Helper()
	resp, err := http.PostForm(baseURL+"/sparql", url.Values{"update": {update}})
	if err != nil {
		t.Fatalf("update request: %v", err)
	}
	return resp
}

func countTriples(t *testing.T, db *amber.DB) int {
	t.Helper()
	n, err := db.Count("SELECT ?s ?o WHERE { ?s <http://repl/p> ?o . }", nil)
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	return int(n)
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func insertStmt(tag string, i int) string {
	return fmt.Sprintf("INSERT DATA { <http://repl/%s/%d> <http://repl/p> <http://repl/o%d> . }", tag, i, i)
}

// TestReplicationEndToEnd is the acceptance demo: a primary and two
// followers, concurrent updates against the primary while both
// followers serve queries, convergence to identical counts after
// quiesce, follower acks visible in the primary's /stats, writes to a
// follower redirected, X-Min-Epoch read-your-writes, and — after one
// follower dies — checkpoint truncation proceeding past its stalled ack
// thanks to the retention override.
func TestReplicationEndToEnd(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{RetainSeqs: 64}, &amber.DurabilityOptions{
		Fsync: "never", SegmentBytes: 2048,
	})
	f1 := startFollower(t, p.ts.URL, "f1", nil)
	f2 := startFollower(t, p.ts.URL, "f2", nil)

	// Concurrent updates on the primary while both followers serve reads.
	const writers, perWriter = 2, 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := sparqlUpdate(t, p.ts.URL, insertStmt(fmt.Sprintf("w%d", w), i))
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					t.Errorf("update w%d/%d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for _, tf := range []*testFollower{f1, f2} {
		wg.Add(1)
		go func(tf *testFollower) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(tf.ts.URL + "/sparql?query=" +
					url.QueryEscape("SELECT ?s WHERE { ?s <http://repl/p> ?o . }"))
				if err != nil {
					t.Errorf("follower query: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("follower query status %d", resp.StatusCode)
				}
				if resp.Header.Get("X-Epoch") == "" {
					t.Error("follower read response missing X-Epoch")
				}
				resp.Body.Close()
				time.Sleep(5 * time.Millisecond)
			}
		}(tf)
	}
	// Writers finish, then the readers are released.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitFor(t, "writers to finish", 30*time.Second, func() bool {
		if countTriples(t, p.db) == writers*perWriter {
			return true
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	close(stop)
	<-done

	want := writers * perWriter
	if got := countTriples(t, p.db); got != want {
		t.Fatalf("primary has %d triples, want %d", got, want)
	}
	waitFor(t, "followers to converge", 10*time.Second, func() bool {
		return countTriples(t, f1.f.DB()) == want && countTriples(t, f2.f.DB()) == want
	})

	// Both followers' acks reach the primary's last sequence in /stats.
	lastSeq := p.db.Durability().LastSeq
	waitFor(t, "acks in /stats", 10*time.Second, func() bool {
		resp, err := http.Get(p.ts.URL + "/stats")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var doc struct {
			Replication struct {
				Followers []struct {
					ID     string `json:"id"`
					AckSeq uint64 `json:"ack_seq"`
				} `json:"followers"`
			} `json:"replication"`
		}
		if json.NewDecoder(resp.Body).Decode(&doc) != nil {
			return false
		}
		acked := map[string]uint64{}
		for _, fw := range doc.Replication.Followers {
			acked[fw.ID] = fw.AckSeq
		}
		return acked["f1"] >= lastSeq && acked["f2"] >= lastSeq
	})

	// Reads advertise the data version on the primary too (not just on
	// updates), and the epochs agree once quiesced.
	resp, err := http.Get(p.ts.URL + "/sparql?query=" +
		url.QueryEscape("SELECT ?s WHERE { ?s <http://repl/p> ?o . }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pEpoch := resp.Header.Get("X-Epoch")
	if pEpoch == "" {
		t.Fatal("primary read response missing X-Epoch")
	}

	// Updates sent to a follower are misdirected: 421 plus the primary's
	// endpoint in Location.
	resp = sparqlUpdate(t, f1.ts.URL, insertStmt("misdirected", 0))
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower update: status %d, want 421", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, p.ts.URL) {
		t.Fatalf("follower update Location %q does not point at the primary", loc)
	}

	// Read-your-writes: a write's X-Epoch, replayed as X-Min-Epoch on a
	// follower read, must see the written triple.
	resp = sparqlUpdate(t, p.ts.URL, "INSERT DATA { <http://repl/ryw> <http://repl/p> <http://repl/ryw-o> . }")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ryw update: status %d", resp.StatusCode)
	}
	wrote := resp.Header.Get("X-Epoch")
	if wrote == "" {
		t.Fatal("update response missing X-Epoch")
	}
	req, _ := http.NewRequest(http.MethodGet, f1.ts.URL+"/sparql?query="+
		url.QueryEscape("SELECT ?o WHERE { <http://repl/ryw> <http://repl/p> ?o . }"), nil)
	req.Header.Set("X-Min-Epoch", wrote)
	req.Header.Set("Accept", "application/sparql-results+json")
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding ryw response: %v", err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("ryw read: status %d", rresp.StatusCode)
	}
	if got, _ := strconv.ParseUint(rresp.Header.Get("X-Epoch"), 10, 64); got < mustU64(t, wrote) {
		t.Fatalf("ryw read served epoch %d below requested %s", got, wrote)
	}
	if len(body.Results.Bindings) != 1 {
		t.Fatalf("ryw read returned %d rows, want 1", len(body.Results.Bindings))
	}

	// Kill follower 2 and write far past RetainSeqs: the next checkpoint
	// must truncate past its stalled ack (the dead follower pins at most
	// RetainSeqs of history) — and follower 1 must keep converging.
	f2.cancel()
	deadAck := f2.f.Cursor()
	for i := 0; i < 100; i++ {
		if err := p.db.Update(insertStmt("post-death", i)); err != nil {
			t.Fatalf("post-death update %d: %v", i, err)
		}
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	oldest := p.rep.oldestSeq()
	last := p.db.Durability().LastSeq
	if oldest <= deadAck+1 {
		t.Fatalf("oldest retained seq %d; dead follower at ack %d blocked truncation", oldest, deadAck)
	}
	if floor := last - 64 + 1; oldest > floor {
		t.Fatalf("oldest retained seq %d beyond the retention floor %d (live follower pinned out)", oldest, floor)
	}
	waitFor(t, "survivor to converge past the checkpoint", 10*time.Second, func() bool {
		return countTriples(t, f1.f.DB()) == want+1+100
	})

	// The dead follower's cursor is now below the oldest retained seq:
	// its reconnect would be told to resync.
	sresp, err := http.Get(fmt.Sprintf("%s/repl/stream?from=%d&id=f2", p.ts.URL, deadAck))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusGone {
		t.Fatalf("stale stream request: status %d, want 410", sresp.StatusCode)
	}
}

func mustU64(t *testing.T, s string) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

// TestFollowerBootstrapViaSnapshotResync starts a fresh follower against
// a primary whose early history is already checkpointed away: the
// stream answers 410, the follower bootstraps from /repl/snapshot, and
// then tails the live stream for subsequent writes.
func TestFollowerBootstrapViaSnapshotResync(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{}, nil)
	for i := 0; i < 40; i++ {
		if err := p.db.Update(insertStmt("pre", i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	f := startFollower(t, p.ts.URL, "late", nil)
	waitFor(t, "snapshot bootstrap", 10*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 40
	})
	if f.f.resyncs.Load() != 1 {
		t.Fatalf("resyncs = %d, want 1", f.f.resyncs.Load())
	}
	// Live tail continues after the bootstrap.
	for i := 0; i < 10; i++ {
		if err := p.db.Update(insertStmt("post", i)); err != nil {
			t.Fatalf("post update %d: %v", i, err)
		}
	}
	waitFor(t, "live tail after bootstrap", 10*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 50
	})
}

// TestBootstrappedPrimaryForcesSnapshotBootstrap: a primary seeded from
// a source file holds base state its WAL never carried. A fresh
// follower streaming from sequence zero would silently miss it, so the
// primary must answer 410 and the follower must bootstrap from a
// snapshot — then tail the live stream as usual.
func TestBootstrappedPrimaryForcesSnapshotBootstrap(t *testing.T) {
	src := filepath.Join(t.TempDir(), "seed.nt")
	var seed strings.Builder
	for i := 0; i < 25; i++ {
		fmt.Fprintf(&seed, "<http://repl/seed/%d> <http://repl/p> <http://repl/o%d> .\n", i, i)
	}
	if err := os.WriteFile(src, []byte(seed.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := amber.OpenDurable(t.TempDir(), &amber.DurabilityOptions{
		Fsync: "never", SourcePath: src,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewPrimary(db, PrimaryOptions{Heartbeat: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{Replication: rep})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		db.Close() //nolint:errcheck
	})

	// The raw protocol answer first: from=0 must be refused outright.
	resp, err := http.Get(ts.URL + "/repl/stream?from=0&id=probe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stream from 0 on a bootstrapped primary: status %d, want 410", resp.StatusCode)
	}

	// And the follower loop handles it end to end: snapshot, then tail.
	f := startFollower(t, ts.URL, "fresh", nil)
	waitFor(t, "snapshot bootstrap of the seeded base", 10*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 25
	})
	if f.f.resyncs.Load() == 0 {
		t.Fatal("follower never resynced — it cannot have gotten the base from the stream")
	}
	// The base occupies sequence 1 (wal.Options.InitialSeq), so the
	// snapshot leaves the follower's cursor above the refused from=0
	// window. On a quiet primary the follower must settle into the
	// stream after ONE resync — not loop snapshot → cursor 0 → 410 →
	// snapshot forever.
	if cur := f.f.Cursor(); cur == 0 {
		t.Fatalf("cursor still 0 after snapshot bootstrap — resync loop incoming")
	}
	resyncsAfterBootstrap := f.f.resyncs.Load()
	time.Sleep(300 * time.Millisecond) // several backoff cycles of quiet
	if got := f.f.resyncs.Load(); got != resyncsAfterBootstrap {
		t.Fatalf("resyncs climbed from %d to %d on a quiet primary — snapshot loop", resyncsAfterBootstrap, got)
	}
	for i := 0; i < 10; i++ {
		if err := db.Update(insertStmt("tail", i)); err != nil {
			t.Fatalf("tail update %d: %v", i, err)
		}
	}
	waitFor(t, "live tail after seeded bootstrap", 10*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 35
	})
}

// TestPrimaryRestartMidStream kills and restarts the primary (same WAL
// directory, new process state) while a follower is tailing: the
// follower must ride out the outage with backoff and converge on the
// restarted primary's writes.
func TestPrimaryRestartMidStream(t *testing.T) {
	dir := t.TempDir()
	dur := &amber.DurabilityOptions{Fsync: "never"}
	db1, err := amber.OpenDurable(dir, dur)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPrimary(db1, PrimaryOptions{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One stable URL fronting whichever primary incarnation is alive —
	// the follower's view of a process restart behind one address.
	var handler atomic.Value // always holds an http.HandlerFunc
	handler.Store(http.HandlerFunc(p1.Handler().ServeHTTP))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.HandlerFunc)(w, r)
	}))
	defer ts.Close()

	f := startFollower(t, ts.URL, "rider", nil)
	for i := 0; i < 30; i++ {
		if err := db1.Update(insertStmt("a", i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	waitFor(t, "catch-up before restart", 10*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 30
	})

	// Crash: the primary goes away mid-stream...
	handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "primary down", http.StatusServiceUnavailable)
	}))
	db1.Close() //nolint:errcheck // closing the log tears down live streams

	// ...and comes back after recovery on the same directory.
	db2, err := amber.OpenDurable(dir, dur)
	if err != nil {
		t.Fatalf("primary restart: %v", err)
	}
	defer db2.Close() //nolint:errcheck
	p2, err := NewPrimary(db2, PrimaryOptions{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db2.Update(insertStmt("b", i)); err != nil {
			t.Fatalf("post-restart update %d: %v", i, err)
		}
	}
	handler.Store(http.HandlerFunc(p2.Handler().ServeHTTP))

	waitFor(t, "convergence after primary restart", 15*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 50
	})
	if f.f.reconnects.Load() == 0 {
		t.Fatal("follower never reconnected across the restart")
	}
}

// TestFaultInjectedCatchUp tears a write in the follower's local WAL in
// the middle of network catch-up: the apply fails, the follower reopens
// its directory (recovery truncates the torn tail), reconnects from the
// surviving prefix, and still converges — the errorfs-backed replication
// half of the torn-write story.
func TestFaultInjectedCatchUp(t *testing.T) {
	p := startPrimary(t, PrimaryOptions{}, nil)
	for i := 0; i < 60; i++ {
		if err := p.db.Update(insertStmt("x", i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	inj := errorfs.New()
	// The fault budget lands mid catch-up, inside the local re-append of
	// the replicated records.
	inj.Arm(1500, errorfs.PartialWrite)
	f := startFollower(t, p.ts.URL, "faulty", func(o *FollowerOptions) {
		o.WrapWALFile = inj.Wrap
	})
	waitFor(t, "convergence across the injected fault", 15*time.Second, func() bool {
		return countTriples(t, f.f.DB()) == 60
	})
	if inj.Faults() != 1 {
		t.Fatalf("faults delivered = %d, want 1", inj.Faults())
	}
	if f.f.localReopens.Load() == 0 {
		t.Fatal("follower never reopened its local directory after the fault")
	}
	// The follower's directory must also recover standalone: acknowledged
	// prefix semantics survived the torn write.
	f.cancel()
}
