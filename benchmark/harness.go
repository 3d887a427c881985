package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/server"
)

// run carries one benchmark run's options and what it has measured.
type run struct {
	seed      int64
	seconds   float64
	trace     bool
	sc        scale
	dir       string // scratch directory, inside the checkout
	tracePath string // where the traced run writes its spans

	attempted, failed atomic.Int64
	mu                sync.Mutex
	notes             []string // wrong answers and failed checks, for the report

	overheadS float64 // client round trips minus server stage time, summed
	overheadN int     // requests overheadS covers

	e2e   map[string]float64
	layer map[string]float64
	info  []string // sample counts and other context printed with the metrics
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// infof records a line printed with the metrics (sample counts, which
// percentile a tail is).
func (r *run) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// store is one opened database with the lifecycle numbers of opening it:
// the path every workload's set-up takes from an N-Triples file to a
// database ready to serve.
type store struct {
	db        *amber.DB
	triples   int
	loadS     float64 // amber.OpenFile of the N-Triples file
	snapOpenS float64 // amber.OpenSnapshotFile of the snapshot it saved
	snapBytes int64
}

// durable says how a workload opens its store durably: churn-durable
// fsyncs every acknowledged write and checkpoints after each compaction;
// bulk-load leaves flushing to the final Close, as a bulk ingest does.
type durable struct {
	fsync      string
	checkpoint bool
}

var (
	churnDurability = &durable{fsync: "always", checkpoint: true}
	bulkDurability  = &durable{fsync: "never"}
)

// open opens the durable directory dir; a directory without a
// checkpoint starts from the snapshot at snapPath.
func (d *durable) open(dir, snapPath string, loaded func()) (*amber.DB, error) {
	return amber.OpenDurable(dir, &amber.DurabilityOptions{
		Fsync:               d.fsync,
		CheckpointOnCompact: d.checkpoint,
		Bootstrap: func() (*amber.DB, error) {
			db, err := amber.OpenSnapshotFile(snapPath)
			if loaded != nil {
				loaded()
			}
			return db, err
		},
	})
}

// snapshotPath is where ingest saves the snapshot of ntPath.
func snapshotPath(ntPath string) string { return strings.TrimSuffix(ntPath, ".nt") + ".snap" }

// ingest loads ntPath, saves a snapshot beside it and reopens from the
// snapshot — in memory, or durably under walDir when d is set.
func ingest(ntPath, walDir string, d *durable) (*store, error) {
	st := &store{}
	snapPath := snapshotPath(ntPath)
	// Each timed step starts from a collected heap, so that it pays for
	// its own garbage and not for the step before it.
	runtime.GC()
	start := time.Now()
	db, err := amber.OpenFile(ntPath)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", ntPath, err)
	}
	st.loadS = time.Since(start).Seconds()
	st.triples = db.Stats().Triples
	if err := db.SaveFile(snapPath); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		return nil, err
	}
	st.snapBytes = fi.Size()
	db = nil //nolint:ineffassign // release the loaded copy before reopening
	runtime.GC()
	start = time.Now()
	snapshotOpen := func() { st.snapOpenS = time.Since(start).Seconds() }
	if d == nil {
		st.db, err = amber.OpenSnapshotFile(snapPath)
		snapshotOpen()
	} else {
		st.db, err = d.open(walDir, snapPath, snapshotOpen)
	}
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	return st, nil
}

// liveHeapMB is HeapAlloc after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// endpoint is the real server handler on a loopback TCP listener inside
// this process.
type endpoint struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

func serve(db *amber.DB) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Config{MaxQueryVisits: visitCap})
	ep := &endpoint{
		srv:  srv,
		hs:   &http.Server{Handler: srv},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(ep.done)
		ep.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return ep, nil
}

// stop closes the listener and waits for the serving goroutine.
func (ep *endpoint) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := ep.hs.Shutdown(ctx); err != nil {
		ep.hs.Close()
	}
	<-ep.done
}

// client is one user: one goroutine's HTTP connection.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what a client keeps of a response.
type reply struct {
	status int
	rows   int
	hit    bool
}

var rowEnd = []byte(`"}}`) // closes the last binding of a JSON result row

func (c *client) do(req *http.Request) (reply, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := io.Copy(&c.body, resp.Body); err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode,
		rows:   bytes.Count(c.body.Bytes(), rowEnd),
		hit:    resp.Header.Get("X-Cache") == "hit",
	}, nil
}

func (c *client) query(path string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	return c.do(req)
}

func (c *client) update(text string) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/sparql", strings.NewReader(text))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	return c.do(req)
}

// answers remembers, per pool query, the row count first seen; every
// later 200 must repeat it.
type answers struct {
	rows []atomic.Int32 // -1 until seen
}

func newAnswers(n int) *answers {
	a := &answers{rows: make([]atomic.Int32, n)}
	for i := range a.rows {
		a.rows[i].Store(-1)
	}
	return a
}

// tally is what one client measured of a query stream.
type tally struct {
	lat        latencies
	rows, hits int64
}

func (t *tally) add(ms float64, rep reply) {
	t.lat.add(ms)
	t.rows += int64(rep.rows)
	if rep.hit {
		t.hits++
	}
}

// queryStream is one stream of pool queries and what it measured.
type queryStream struct {
	r    *run
	pool []poolQuery
	ans  *answers

	mu sync.Mutex
	tally
}

func (qs *queryStream) merge(t *tally) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	qs.lat.merge(t.lat)
	qs.rows += t.rows
	qs.hits += t.hits
}

// send issues pool query idx on c and checks the answer: a transport
// error, a status other than 200 or a row count other than the one first
// seen for that query counts as a failed operation.
func (qs *queryStream) send(c *client, idx int) (rep reply, ok bool) {
	qs.r.attempted.Add(1)
	rep, err := c.query(qs.pool[idx].path)
	seen := &qs.ans.rows[idx]
	switch {
	case err != nil:
		qs.r.fail("query %d: %v", idx, err)
	case rep.status != http.StatusOK:
		qs.r.fail("query %d: status %d", idx, rep.status)
	case rep.rows > resultLimit:
		qs.r.fail("query %d: %d rows exceed LIMIT %d", idx, rep.rows, resultLimit)
	case !seen.CompareAndSwap(-1, int32(rep.rows)) && seen.Load() != int32(rep.rows):
		qs.r.fail("query %d: %d rows, first seen %d", idx, rep.rows, seen.Load())
	default:
		return rep, true
	}
	qs.r.failed.Add(1)
	return rep, false
}

// closedLoop runs n clients, each sending its next request as soon as
// the previous one completes, until next reports no more work. next is
// called with the client number and must be safe for concurrent use. It
// returns the wall time the loop took.
func (qs *queryStream) closedLoop(addr string, n int, next func(k int) (idx int, ok bool)) (elapsed float64) {
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr)
			defer c.close()
			var t tally
			for {
				idx, more := next(k)
				if !more {
					break
				}
				sent := time.Now()
				if rep, ok := qs.send(c, idx); ok {
					t.add(msSince(sent), rep)
				}
			}
			qs.merge(&t)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// once returns a closed loop's next function that hands out each pool
// index of order exactly once, whichever client asks.
func once(order []int) func(int) (int, bool) {
	var i atomic.Int64
	return func(int) (int, bool) {
		n := int(i.Add(1)) - 1
		if n >= len(order) {
			return 0, false
		}
		return order[n], true
	}
}

// inPoolOrder is the order 0..n-1.
func inPoolOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// openLoop sends requests on a Poisson schedule of rate requests/s for
// dur, split over n clients (independent users: the schedule does not
// wait for replies). Each latency runs from the instant the request was
// due, so time spent queued behind a slow reply counts. It returns the
// mean lateness of the sends in ms — how late the generator ran.
func openLoop(n int, rate float64, dur time.Duration, seed int64, op func(k int, rng *rand.Rand, due time.Time)) (lateMS float64) {
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var lateSum float64
	var sent int
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(k)*7919))
			due := start
			var late float64
			var count int
			for {
				gap := rng.ExpFloat64() / (rate / float64(n))
				due = due.Add(time.Duration(gap * float64(time.Second)))
				if due.After(end) {
					break
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late += msSince(due)
				count++
				op(k, rng, due)
			}
			mu.Lock()
			lateSum += late
			sent += count
			mu.Unlock()
		}()
	}
	wg.Wait()
	if sent == 0 {
		return 0
	}
	return lateSum / float64(sent)
}

// zipfPicker draws pool indices Zipf(s=1.1): index 0 is the hottest.
func zipfPicker(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// scratch makes the run's scratch directory under out/.
func scratch(out, workload string) (string, error) {
	dir := filepath.Join(out, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
