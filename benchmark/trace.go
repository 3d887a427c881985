package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/results"
	"repro/internal/server"
	"repro/internal/sparql"
	"repro/internal/wal"
)

type serverStats = server.StatsResponse

// span is one timed call into a layer. Times are nanoseconds since the
// trace began; Parent is the id of the span that caused this one (-1 for
// a request); spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. With on false it
// records nothing, which is how the replay measures its own overhead.
type tracer struct {
	t0       time.Time
	on       bool
	spans    []span
	requests int
}

// request opens a request span and returns its id.
func (t *tracer) request(name string) int {
	t.requests++
	return t.start(name, -1)
}

// start opens a span under parent; the request is the parent's.
func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return -1
	}
	req := t.requests
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Parent: parent, Request: req,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// call times fn as a span under parent.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id)
}

// selfSeconds sums, per span name, each span's duration minus the part
// its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

func (t *tracer) calls(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is the traced run's view of the program: the store's layers,
// built one public function at a time from the workload's own input
// file, so that each call can be timed from outside the program.
type layers struct {
	r    *run
	tr   *tracer
	g    *multigraph.Graph
	view *delta.View // index.Reader and dict.Resolver, with any replayed overlay

	eng        engine.Stats
	meter      *obs.ResourceMeter
	ratioSum   float64
	ratioN     int
	resultSize int64
}

// buildLayers replays the load path over ntPath: decode, build the
// multigraph, build the index ensemble, encode and decode a snapshot.
func (r *run) buildLayers(tr *tracer, ntPath string) (*layers, error) {
	l := &layers{r: r, tr: tr, meter: obs.NewResourceMeter()}
	f, err := os.Open(ntPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	req := tr.request("load")
	var triples []rdf.Triple
	var derr error
	tr.call("rdf.decode", req, func() {
		dec := rdf.NewDecoder(bufio.NewReaderSize(f, 1<<20))
		for {
			t, err := dec.Decode()
			if err != nil {
				if err != io.EOF {
					derr = err
				}
				return
			}
			triples = append(triples, t)
		}
	})
	if derr != nil {
		return nil, fmt.Errorf("traced decode: %w", derr)
	}
	tr.call("multigraph.build", req, func() {
		var b multigraph.Builder
		derr = b.AddAll(triples)
		l.g = b.Build()
	})
	if derr != nil {
		return nil, fmt.Errorf("traced build: %w", derr)
	}
	var ix *index.Index
	tr.call("index.build", req, func() { ix = index.Build(l.g) })
	var snap bytes.Buffer
	tr.call("multigraph.encode", req, func() { derr = l.g.Encode(&snap) })
	if derr == nil {
		tr.call("multigraph.decode", req, func() { _, derr = multigraph.Decode(&snap) })
	}
	if derr != nil {
		return nil, fmt.Errorf("traced snapshot: %w", derr)
	}
	tr.end(req)
	l.view = delta.NewView(l.g, ix)
	r.layer["rdf.triples"] = float64(len(triples))
	r.layer["rdf.bytes"] = float64(fi.Size())
	r.layer["multigraph.vertices"] = float64(l.g.NumVertices())
	r.layer["multigraph.edges"] = float64(l.g.NumEdges())
	return l, nil
}

// replayQuery takes one query text through parse, translate, plan,
// match and serialise, as the server does on a cache miss.
func (l *layers) replayQuery(text string) error {
	tr := l.tr
	req := tr.request("query")
	defer tr.end(req)
	var q *sparql.Query
	var qg *query.Graph
	var err error
	tr.call("sparql.parse", req, func() { q, err = sparql.Parse(text) })
	if err != nil {
		return err
	}
	tr.call("query.build", req, func() { qg, err = query.Build(q, l.view) })
	if err != nil {
		return err
	}
	var pl *plan.Plan
	tr.call("plan.plan", req, func() { pl = plan.For(qg, l.view) })
	var st engine.Stats
	var found [][]dict.VertexID
	tr.call("engine.match", req, func() {
		err = engine.Stream(l.view, pl, engine.Options{Limit: q.Limit, Stats: &st, Meter: l.meter},
			func(asg []dict.VertexID) bool {
				found = append(found, append([]dict.VertexID(nil), asg...))
				return true
			})
	})
	if err != nil {
		return err
	}
	tr.call("results.write", req, func() {
		cw := &countingDiscard{}
		w := results.Formats[0].New(cw)
		err = w.Begin(q.Projection())
		for _, asg := range found {
			row := make(map[string]rdf.Term, len(qg.Vars))
			for u := range qg.Vars {
				row[qg.Vars[u].Name] = core.BindingTerm(l.view, asg[u])
			}
			if err == nil {
				err = w.Row(row)
			}
		}
		if err == nil {
			err = w.End()
		}
		l.resultSize += cw.n
	})
	l.eng.InitCandidates += st.InitCandidates
	l.eng.Recursions += st.Recursions
	l.eng.SatProbes += st.SatProbes
	l.eng.Embeddings += st.Embeddings
	// Planner accuracy as the server's plan-quality gauge defines it: the
	// mean over visited levels of (estimate+1)/(mean frontier+1).
	sum, n := 0.0, 0
	for _, lv := range st.Levels {
		ests := pl.Components[lv.Component].Estimates
		if lv.Visits == 0 || lv.Pos >= len(ests) || math.IsInf(ests[lv.Pos], 0) || math.IsNaN(ests[lv.Pos]) {
			continue
		}
		sum += (ests[lv.Pos] + 1) / (float64(lv.Candidates)/float64(lv.Visits) + 1)
		n++
	}
	if n > 0 {
		l.ratioSum += sum / float64(n)
		l.ratioN++
	}
	return err
}

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// replayWrites takes batches through the write path's layers: parse the
// update text (when the workload sends SPARQL), apply to the overlay,
// append to a scratch write-ahead log and sync it, and — when the
// workload still has its durable store open — commit through mutate, the
// store's own write path. Then the scratch log is reopened to time its
// replay.
func (l *layers) replayWrites(batches []batch, asSPARQL bool, mutate func(adds, dels []rdf.Triple) error) error {
	tr := l.tr
	dir := filepath.Join(l.r.dir, "tracewal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	log, err := wal.Open(dir, wal.Options{Policy: wal.SyncNever}, nil)
	if err != nil {
		return err
	}
	var userBytes int64
	for _, b := range batches {
		req := tr.request("update")
		adds := b.triples
		if asSPARQL {
			var u *sparql.Update
			text := b.dataBlock("INSERT")
			tr.call("sparql.parse_update", req, func() { u, err = sparql.ParseUpdate(text) })
			if err != nil {
				return err
			}
			adds = u.Ops[0].Triples
		}
		tr.call("delta.apply", req, func() {
			var nv *delta.View
			if nv, err = l.view.Apply(adds, nil); err == nil {
				l.view = nv
			}
		})
		if err != nil {
			return err
		}
		tr.call("wal.append", req, func() {
			_, err = log.AppendBatchNoSync([]wal.Record{{Kind: wal.KindMutation, Adds: adds}})
		})
		if err != nil {
			return err
		}
		tr.call("wal.sync", req, func() { err = log.Sync() })
		if err == nil && mutate != nil {
			tr.call("core.mutate", req, func() { err = mutate(adds, nil) })
		}
		if err != nil {
			return err
		}
		tr.end(req)
		userBytes += int64(b.userBytes)
	}
	st := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	l.r.layer["delta.batches"] = float64(len(batches))
	l.r.layer["wal.bytes"] = float64(st.Bytes)
	if userBytes > 0 {
		l.r.layer["wal.bytes_per_user_byte"] = float64(st.Bytes) / float64(userBytes)
	}
	req := tr.request("recover")
	replayed := 0
	tr.call("wal.replay", req, func() {
		log, err = wal.Open(dir, wal.Options{Policy: wal.SyncNever},
			wal.ConsumerFunc(func(wal.Record) error { replayed++; return nil }))
	})
	tr.end(req)
	if err != nil {
		return err
	}
	if replayed != len(batches) {
		return fmt.Errorf("traced wal replay: %d records, appended %d", replayed, len(batches))
	}
	return log.Close()
}

// probeIndex times the two index probes the matcher leans on over a
// fixed sample of vertices, in ns per call.
func (l *layers) probeIndex() {
	nv := l.g.NumVertices()
	if nv == 0 {
		return
	}
	const sample = 2000
	step := max(1, nv/sample)
	var n int
	start := time.Now()
	for v := 0; v < nv; v += step {
		l.view.Neighbors(dict.VertexID(v), index.Outgoing, nil)
		l.view.Neighbors(dict.VertexID(v), index.Incoming, nil)
		n += 2
	}
	l.r.layer["index.neighbors_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
	n = 0
	start = time.Now()
	for v := 0; v < nv; v += step * 10 {
		l.view.SignatureCandidates(l.g.VertexSynopsis(dict.VertexID(v)).AsQuery())
		n++
	}
	l.r.layer["index.signature_candidates_ns"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}

// fsyncProbeMS is the median of twenty 4 KiB write+fsync pairs in dir:
// what one flush costs on the disk the checkout sits on.
func fsyncProbeMS(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var lat latencies
	block := make([]byte, 4096)
	for i := 0; i < 20; i++ {
		t := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat.add(msSince(t))
	}
	return lat.median(), nil
}

// traceLayers is the traced run: it rebuilds the workload's store layer
// by layer from the same input file, replays the same generated requests
// single-threaded through the layers' public functions — to warm up,
// then without recording, then with a span per call — and turns the
// spans into the per-layer metrics. batches are the writes to replay before the
// queries (nil for the read-only workloads), as SPARQL text or not, and
// mutate the open durable store's commit function, if any; order is the
// pool order to replay (nil draws Zipf from the seed, as the hot
// workloads do).
func (r *run) traceLayers(s *setup, order []int, batches []batch, asSPARQL bool, mutate func(adds, dels []rdf.Triple) error) error {
	picks := order
	if picks == nil {
		pick := zipfPicker(rand.New(rand.NewSource(r.seed)), len(s.pool))
		picks = make([]int, r.sc.traceRequests)
		for i := range picks {
			picks[i] = pick()
		}
	}
	picks = picks[:min(len(picks), r.sc.traceRequests)]
	if len(batches) > r.sc.traceRequests {
		batches = batches[:r.sc.traceRequests]
	}

	replay := func(tr *tracer, commit func(adds, dels []rdf.Triple) error) (*layers, float64, error) {
		start := time.Now()
		l, err := r.buildLayers(tr, s.ntPath)
		if err != nil {
			return nil, 0, err
		}
		if len(batches) > 0 {
			if err := l.replayWrites(batches, asSPARQL, commit); err != nil {
				return nil, 0, fmt.Errorf("traced writes: %w", err)
			}
		}
		for _, idx := range picks {
			if err := l.replayQuery(s.pool[idx].text); err != nil {
				return nil, 0, fmt.Errorf("traced query %d: %w", idx, err)
			}
		}
		return l, time.Since(start).Seconds(), nil
	}
	// A first pass warms the page cache and the allocator, so that the
	// untraced and the traced pass differ only in the recording. Neither
	// untraced pass touches the store: a batch commits once.
	if _, _, err := replay(&tracer{t0: time.Now()}, nil); err != nil {
		return err
	}
	_, plain, err := replay(&tracer{t0: time.Now()}, nil)
	if err != nil {
		return err
	}
	tr := &tracer{t0: time.Now(), on: true}
	l, traced, err := replay(tr, mutate)
	if err != nil {
		return err
	}
	self := tr.selfSeconds()
	traced -= self["core.mutate"]
	r.layer["trace.overhead_frac"] = (traced - plain) / plain
	l.probeIndex()
	if r.layer["wal.fsync_probe_ms"], err = fsyncProbeMS(r.dir); err != nil {
		return err
	}

	// A layer span is named after its package and function; a request
	// span ("query", "update", "load", "recover") has no dot.
	for name, seconds := range self {
		if strings.Contains(name, ".") {
			r.layer[name+"_s"] = seconds
		}
	}
	r.layer["sparql.parse_calls"] = float64(tr.calls("sparql.parse") + tr.calls("sparql.parse_update"))
	r.layer["engine.init_candidates"] = float64(l.eng.InitCandidates)
	r.layer["engine.recursions"] = float64(l.eng.Recursions)
	r.layer["engine.sat_probes"] = float64(l.eng.SatProbes)
	r.layer["engine.embeddings"] = float64(l.eng.Embeddings)
	if l.eng.Recursions > 0 {
		r.layer["engine.rows_per_recursion"] = float64(l.eng.Embeddings) / float64(l.eng.Recursions)
	}
	r.layer["engine.overlay_probes"] = float64(l.meter.View().OverlayProbes)
	if l.ratioN > 0 {
		r.layer["plan.est_actual_ratio"] = l.ratioSum / float64(l.ratioN)
	}
	r.layer["results.bytes"] = float64(l.resultSize)
	r.infof("traced replay: %d queries, %d write batches, %d spans; %.3f s traced, %.3f s untraced",
		len(picks), len(batches), len(tr.spans), traced, plain)
	return tr.write(r.tracePath)
}

// stageSeconds reads the server's own per-stage timers (parse_plan,
// execute, serialize) from /metrics and returns their sum.
func stageSeconds(addr string) (float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok || !strings.HasPrefix(name, "amber_stage_duration_seconds_sum") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		total += v
	}
	return total, sc.Err()
}
