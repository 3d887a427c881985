package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	amber "repro"
	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/multigraph"
	"repro/internal/rdf"
	"repro/internal/workload"
)

// recipe says how a workload sets up: which corpus, which query pool,
// and how the store is opened.
type recipe struct {
	corpus     func() []rdf.Triple
	kinds      []workload.Kind
	size       int      // triple patterns per query
	pool, warm int      // distinct pool queries; extra queries used only to warm up
	durable    *durable // open with OpenDurable; nil serves from memory
	// held is how many of the corpus's last triples stay out of the
	// N-Triples file: bulk-load commits them as Mutate batches.
	held int
	// loadOnly stops the set-up once the inputs are on disk: bulk-load
	// measures the rest.
	loadOnly bool
}

func (sc scale) recipe(workloadName string) recipe {
	star := []workload.Kind{workload.Star}
	switch workloadName {
	case "serve-hot":
		return recipe{corpus: func() []rdf.Triple { return lubm(sc.lubmServe) }, kinds: star, size: 5, pool: sc.hotPool}
	case "match-cold":
		return recipe{
			corpus: func() []rdf.Triple { return datagen.DBpediaLike(sc.dbpedia, datasetSeed) },
			kinds:  []workload.Kind{workload.Star, workload.Complex}, size: 8, pool: sc.coldPool, warm: sc.warmPool,
		}
	case "churn-durable":
		return recipe{
			corpus: func() []rdf.Triple { return lubm(sc.lubmServe) }, kinds: star, size: 5, pool: sc.hotPool,
			durable: churnDurability,
		}
	default: // bulk-load
		return recipe{
			corpus: func() []rdf.Triple { return lubm(sc.lubmBulk) }, kinds: star, size: 5, pool: sc.bulkPool,
			durable: bulkDurability, held: sc.bulkBatches * batchTriples, loadOnly: true,
		}
	}
}

// setup is what one set-up cycle leaves behind.
type setup struct {
	ntPath  string
	pool    []poolQuery
	warm    []poolQuery
	held    []rdf.Triple // corpus triples kept out of the file
	corpus  tripleSet    // digest of the whole corpus
	st      *store
	ep      *endpoint
	ans     *answers
	walDir  string
	triples []rdf.Triple // the corpus; dropped after the oracle check
}

func (s *setup) close() {
	if s.ep != nil {
		s.ep.stop()
	}
	if s.st != nil {
		s.st.db.Close() //nolint:errcheck // torn down, not reused
	}
}

// inputs generates the workload's inputs from the data-set seed, once a
// run: the corpus, the query pool and the N-Triples file. They are the
// harness's work, not the program's, so they stay outside the timed
// set-up cycles (bulk-load, whose set-up is nothing else, reports them).
func (r *run) inputs(rc recipe) (*setup, error) {
	s := &setup{ntPath: filepath.Join(r.dir, "data.nt")}
	s.triples = rc.corpus()
	s.corpus = digest(s.triples)
	pool, err := buildPool(s.triples, rc.kinds, rc.size, rc.pool+rc.warm)
	if err != nil {
		return nil, err
	}
	s.pool, s.warm = pool[:rc.pool], pool[rc.pool:]
	s.ans = newAnswers(len(s.pool))
	inFile := len(s.triples) - rc.held
	if inFile <= 0 {
		return nil, fmt.Errorf("corpus of %d triples is smaller than the %d held back", len(s.triples), rc.held)
	}
	s.held = s.triples[inFile:]
	return s, writeNT(s.ntPath, s.triples[:inFile])
}

// bringUp runs one set-up cycle, the path a deployment takes from an
// N-Triples file to a warm server: load the file, snapshot it, reopen
// from the snapshot, start the server and warm it up.
func (r *run) bringUp(rc recipe, s *setup, cycle int) error {
	var err error
	s.walDir = ""
	if rc.durable != nil {
		s.walDir = filepath.Join(r.dir, fmt.Sprintf("wal%d", cycle))
	}
	if s.st, err = ingest(s.ntPath, s.walDir, rc.durable); err != nil {
		return err
	}
	if rc.durable != nil {
		s.st.db.SetCompactThreshold(r.sc.compactThreshold)
	}
	if s.ep, err = serve(s.st.db); err != nil {
		return err
	}
	// Warm-up: the extra queries when the workload has them (so the pool
	// itself stays uncached), else every pool query once, which also
	// records each query's row count.
	warm := &queryStream{r: r, pool: s.pool, ans: s.ans}
	if len(s.warm) > 0 {
		warm = &queryStream{r: r, pool: s.warm, ans: newAnswers(len(s.warm))}
	}
	warm.closedLoop(s.ep.addr, clients, once(inPoolOrder(len(warm.pool))))
	return nil
}

// setUp generates the inputs, then runs the workload's set-up cycles and
// keeps the last. It reports setup_s as the median cycle together with
// the load, snapshot and heap metrics; the first cycle's store is
// checked against the oracle before it is dropped. A load-only workload
// (bulk-load) measures those itself, and its setup_s is the inputs.
func (r *run) setUp(rc recipe) (*setup, error) {
	start := time.Now()
	s, err := r.inputs(rc)
	if err != nil {
		return nil, err
	}
	generated := time.Since(start).Seconds()
	if rc.loadOnly {
		r.e2e["setup_s"] = generated
		return s, nil
	}
	cycles := r.sc.setups
	if r.trace {
		cycles = 1
	}
	var secs, loads, opens []float64
	for c := 0; c < cycles; c++ {
		start := time.Now()
		if err := r.bringUp(rc, s, c); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		loads = append(loads, float64(s.st.triples)/s.st.loadS)
		opens = append(opens, s.st.snapOpenS)
		if c == 0 {
			err := oracleCheck(s.st.db, s.triples, s.pool, r.sc.oracleMin)
			s.triples, s.held = nil, nil
			if err != nil {
				s.close()
				return nil, err
			}
		}
		if c < cycles-1 {
			s.close()
			s.st, s.ep = nil, nil
		}
	}
	r.e2e["setup_s"] = median(secs)
	r.e2e["load_triples_per_s"] = median(loads)
	r.e2e["snapshot_open_s"] = median(opens)
	r.e2e["bytes_per_triple"] = float64(s.st.snapBytes) / float64(s.st.triples)
	r.e2e["live_heap_mb"] = liveHeapMB()
	r.layer["index.bytes"] = float64(s.st.db.Stats().IndexBytes)
	r.infof("%d set-up cycles after %.3f s of input generation", cycles, generated)
	return s, nil
}

// stretch is what one measured stretch of a query stream gave: a
// serve-hot segment, a match-cold pass, a bulk-load cycle's query pass.
type stretch struct {
	n                     int
	p50, p95, p99         float64
	tailQ                 float64 // the quantile p95 really is (lower on a short stretch)
	queriesPerS, rowsPerS float64
}

// measureStretch runs a fresh stream's closed loop and summarises it.
func (r *run) measureStretch(s *setup, addr string, n int, next func(k int) (int, bool)) (stretch, *queryStream) {
	qs := &queryStream{r: r, pool: s.pool, ans: s.ans}
	elapsed := qs.closedLoop(addr, n, next)
	p95, q := qs.lat.tail()
	return stretch{
		n: qs.lat.n(), p50: qs.lat.median(), p95: p95, p99: qs.lat.p99(), tailQ: q,
		queriesPerS: float64(qs.lat.n()) / elapsed, rowsPerS: float64(qs.rows) / elapsed,
	}, qs
}

// reportQueries fills the query metrics with the median over the
// stretches, so that a stall that hits one stretch does not move them.
func (r *run) reportQueries(what string, stretches []stretch) {
	pick := func(f func(stretch) float64) float64 {
		v := make([]float64, len(stretches))
		for i, st := range stretches {
			v[i] = f(st)
		}
		return median(v)
	}
	r.e2e["query_p50_ms"] = pick(func(st stretch) float64 { return st.p50 })
	r.e2e["query_p95_ms"] = pick(func(st stretch) float64 { return st.p95 })
	r.layer["server.query_p99_ms"] = pick(func(st stretch) float64 { return st.p99 })
	r.e2e["queries_per_s"] = pick(func(st stretch) float64 { return st.queriesPerS })
	r.e2e["rows_per_s"] = pick(func(st stretch) float64 { return st.rowsPerS })
	r.infof("query metrics: median over %d %s of %d answers each, tail is p%.4g",
		len(stretches), what, stretches[0].n, stretches[0].tailQ*100)
}

// overhead accumulates server.overhead_s — per request, the client's
// round trip minus the time the server's own stage timers (parse and
// plan, execute, serialise) saw — over the stream qs. stageBefore is
// stageSeconds read before the stream ran.
func (r *run) overhead(addr string, stageBefore float64, qs *queryStream) error {
	stage, err := stageSeconds(addr)
	if err != nil {
		return err
	}
	for _, ms := range qs.lat.ms {
		r.overheadS += ms / 1000
	}
	r.overheadS -= stage - stageBefore
	r.overheadN += qs.lat.n()
	return nil
}

// reportOps fills the op latency metrics from the write stream's samples.
func (r *run) reportOps(lat *latencies) {
	p95, q := lat.tail()
	r.e2e["op_p50_ms"] = lat.median()
	r.layer["server.op_p95_ms"] = p95
	r.layer["server.op_p99_ms"] = lat.p99()
	r.infof("op latency: %d samples, tail is p%.4g", lat.n(), q*100)
}

// sameAsQueries copies the query metrics to the op metrics: on the
// read-only workloads the operation stream is the query stream.
func (r *run) sameAsQueries() {
	r.e2e["op_p50_ms"] = r.e2e["query_p50_ms"]
	r.e2e["ops_per_s"] = r.e2e["queries_per_s"]
	r.layer["server.op_p95_ms"] = r.e2e["query_p95_ms"]
	r.layer["server.op_p99_ms"] = r.layer["server.query_p99_ms"]
}

// serveHot: every request is a result-cache hit. Five closed-loop
// segments measure latency and capacity. The traced run then
// sends five open-loop segments at the frozen rates R1..R5 and reports,
// per layer, each rate's tail latency from due time and the highest rate
// that met the limit.
func (r *run) serveHot() error {
	s, err := r.setUp(r.sc.recipe("serve-hot"))
	if err != nil {
		return err
	}
	defer s.close()
	before := s.ep.srv.Stats()

	pickers := make([]func() int, clients)
	for k := range pickers {
		pickers[k] = zipfPicker(rand.New(rand.NewSource(r.seed+int64(k))), len(s.pool))
	}
	const segments = 5
	var stretches []stretch
	var hits, served int64
	for i := 0; i < segments; i++ {
		stage, err := stageSeconds(s.ep.addr)
		if err != nil {
			return err
		}
		deadline := time.Now().Add(time.Duration(r.seconds / segments * float64(time.Second)))
		st, qs := r.measureStretch(s, s.ep.addr, clients, func(k int) (int, bool) {
			return pickers[k](), time.Now().Before(deadline)
		})
		if err := r.overhead(s.ep.addr, stage, qs); err != nil {
			return err
		}
		stretches = append(stretches, st)
		hits += qs.hits
		served += int64(st.n)
	}
	r.reportQueries("segments", stretches)
	r.sameAsQueries()
	r.serverCounters(before, s.ep.srv.Stats())
	r.infof("result cache: %d of %d answers were hits (X-Cache)", hits, served)
	if !r.trace {
		return nil
	}

	// The rate sweep is per-layer output, so only the traced run pays
	// for it.
	segment := time.Duration(r.seconds / 10 * float64(time.Second))
	maxOK := 0.0
	for i, rate := range serveRates {
		qs := &queryStream{r: r, pool: s.pool, ans: s.ans}
		cs := make([]*client, clients)
		ts := make([]tally, clients)
		picks := make([]func() int, clients)
		for k := range cs {
			cs[k] = newClient(s.ep.addr)
		}
		failedBefore := r.failed.Load()
		late := openLoop(clients, rate, segment, r.seed+int64(i+1)*104729, func(k int, rng *rand.Rand, due time.Time) {
			if picks[k] == nil {
				picks[k] = zipfPicker(rng, len(s.pool))
			}
			if rep, ok := qs.send(cs[k], picks[k]()); ok {
				ts[k].add(msSince(due), rep)
			}
		})
		for k := range cs {
			cs[k].close()
			qs.merge(&ts[k])
		}
		p99 := qs.lat.p99()
		r.layer[fmt.Sprintf("server.rate%d_p99_ms", i+1)] = p99
		if p99 <= latencyLimitMS && r.failed.Load() == failedBefore && maxOK == serveRatesBelow(i) {
			maxOK = rate
		}
		if i == 2 {
			r.layer["server.gen_late_ms"] = late
		}
		r.infof("rate %d: %.0f req/s offered, %d answered, from due time p50 %.3f ms, p99 %.3f ms, generator late %.3f ms",
			i+1, rate, qs.lat.n(), qs.lat.median(), p99, late)
	}
	r.layer["server.max_rate_ok"] = maxOK
	return r.traceLayers(s, nil, nil, false, nil)
}

// serveRatesBelow is the rate one step under serveRates[i] (0 under R1):
// max_rate_ok only climbs while every lower rate met the limit.
func serveRatesBelow(i int) float64 {
	if i == 0 {
		return 0
	}
	return serveRates[i-1]
}

// matchCold: every request misses both caches. The pool is larger than
// the plan and result caches and is visited in one shuffled order,
// cyclically, in whole passes.
func (r *run) matchCold() error {
	s, err := r.setUp(r.sc.recipe("match-cold"))
	if err != nil {
		return err
	}
	defer s.close()
	before := s.ep.srv.Stats()

	order := rand.New(rand.NewSource(r.seed)).Perm(len(s.pool))
	stage, err := stageSeconds(s.ep.addr)
	if err != nil {
		return err
	}
	start := time.Now()
	var passes []stretch
	for time.Since(start).Seconds() < r.seconds {
		st, qs := r.measureStretch(s, s.ep.addr, clients, once(order))
		if err := r.overhead(s.ep.addr, stage, qs); err != nil {
			return err
		}
		if stage, err = stageSeconds(s.ep.addr); err != nil {
			return err
		}
		passes = append(passes, st)
	}
	r.reportQueries("passes", passes)
	r.sameAsQueries()
	r.serverCounters(before, s.ep.srv.Stats())
	if r.trace {
		return r.traceLayers(s, order, nil, false, nil)
	}
	return nil
}

// writer is one churn-durable update client: it inserts batch after
// batch and deletes each again window batches later, so the live size is
// steady while the overlay keeps growing towards the next compaction.
type writer struct {
	r      *run
	id     int
	rng    *rand.Rand
	c      *client
	window int
	live   []batch // inserted, not yet deleted; oldest first
	next   int     // id of the next batch to insert
	ops    int
	lat    latencies
}

// step sends the writer's next update, timed from due. Inserts and
// deletes alternate once the window is full.
func (w *writer) step(due time.Time) {
	var text string
	var b batch
	insert := len(w.live) < w.window || w.ops%2 == 0
	if insert {
		b = churnBatch(w.rng, w.id, w.next)
		w.next++
		text = b.dataBlock("INSERT")
	} else {
		b = w.live[0]
		text = b.dataBlock("DELETE")
	}
	w.ops++
	w.r.attempted.Add(1)
	rep, err := w.c.update(text)
	if err != nil || rep.status != http.StatusNoContent {
		w.r.failed.Add(1)
		w.r.fail("writer %d: update failed: status %d, %v", w.id, rep.status, err)
		return
	}
	w.lat.add(msSince(due))
	if insert {
		w.live = append(w.live, b)
	} else {
		w.live = w.live[1:]
	}
}

// churnDurable: a durable store under writes. Phase A runs one writer,
// closed loop, for a fixed number of batches while compaction and
// checkpoints run beside it. The traced run adds the contended mixes:
// every writer flat out, then a reader beside the writer. Then the
// store's triple set is compared with what the acknowledged writes
// imply, before and after a restart, and the restarted store answers
// the pool.
func (r *run) churnDurable() error {
	s, err := r.setUp(r.sc.recipe("churn-durable"))
	if err != nil {
		return err
	}
	defer func() { s.close() }()
	db := s.st.db
	before := s.ep.srv.Stats()
	durBefore, genBefore, wsBefore := db.Durability(), db.Generation(), db.WriteStats()

	writers := make([]*writer, clients)
	for k := range writers {
		writers[k] = &writer{
			r: r, id: k, c: newClient(s.ep.addr),
			rng: rand.New(rand.NewSource(r.seed + int64(k)*15485863)),
			// The window holds a compaction threshold of live triples:
			// filling it triggers the first compaction, and from then on
			// deletes hit compacted base triples and become tombstones, so
			// the overlay keeps filling and compaction recurs.
			window: max(1, r.sc.compactThreshold/batchTriples),
		}
	}

	// Phase A: writer 0 alone, closed loop, a fixed number of batches.
	// Fixed work, not fixed time: the overlay then crosses the compaction
	// threshold at the same batches on every run and every commit.
	soloBatches := int(float64(r.sc.soloBatches) * r.seconds / 10)
	start := time.Now()
	for i := 0; i < soloBatches; i++ {
		writers[0].step(time.Now())
	}
	solo := time.Since(start).Seconds()
	r.reportOps(&writers[0].lat)
	r.e2e["ops_per_s"] = float64(writers[0].lat.n()) / solo
	r.infof("phase A: %d updates of %d triples in %.3f s by 1 writer", writers[0].lat.n(), batchTriples, solo)
	if r.trace {
		r.contend(s, writers, soloBatches/2)
	}

	// Quiesce, then compare the store with the acknowledged writes.
	want := s.corpus
	for _, w := range writers {
		w.c.close()
		for _, b := range w.live {
			for _, t := range b.triples {
				want.add(t)
			}
		}
	}
	db.WaitCompaction()
	r.serverCounters(before, s.ep.srv.Stats())
	dur, gen, ws := db.Durability(), db.Generation(), db.WriteStats()
	r.layer["wal.fsyncs"] = float64(dur.Fsyncs - durBefore.Fsyncs)
	r.layer["core.checkpoints"] = float64(dur.Checkpoints - durBefore.Checkpoints)
	r.layer["core.compactions"] = float64(gen.Compactions - genBefore.Compactions)
	r.layer["core.compaction_s"] = gen.LastCompaction.Seconds()
	r.layer["core.commit_groups"] = float64(ws.Groups - wsBefore.Groups)
	if g := ws.Groups - wsBefore.Groups; g > 0 {
		r.layer["core.mean_group_size"] = float64(ws.Batches-wsBefore.Batches) / float64(g)
	}
	r.infof("%d compactions, %d checkpoints, %d fsyncs for %d batches",
		gen.Compactions-genBefore.Compactions, dur.Checkpoints-durBefore.Checkpoints,
		dur.Fsyncs-durBefore.Fsyncs, ws.Batches-wsBefore.Batches)
	if err := r.checkSet("after quiesce", db, want); err != nil {
		return err
	}

	// Restart: close, reopen from the directory alone, compare again.
	s.close()
	s.ep, s.st.db = nil, nil
	start = time.Now()
	reopened, err := churnDurability.open(s.walDir, snapshotPath(s.ntPath), nil)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	r.layer["core.reopen_s"] = time.Since(start).Seconds()
	s.st.db = reopened
	if err := r.checkSet("after restart", reopened, want); err != nil {
		return err
	}

	// First answers after the restart: the pool three times, each time
	// on a fresh server so that every query misses, over the checkpointed
	// base and the replayed tail of the log. These are the workload's
	// query metrics.
	reopened.WaitCompaction()
	var passes []stretch
	for pass := 0; pass < 3; pass++ {
		if s.ep, err = serve(reopened); err != nil {
			return err
		}
		first, qs := r.measureStretch(s, s.ep.addr, clients, once(inPoolOrder(len(s.pool))))
		if err := r.overhead(s.ep.addr, 0, qs); err != nil {
			return err
		}
		passes = append(passes, first)
		s.ep.stop()
		s.ep = nil
	}
	r.reportQueries("passes after the restart", passes)
	if r.trace {
		// Fresh batches, so the store's own commit path has real work.
		rng := rand.New(rand.NewSource(r.seed + 3))
		batches := make([]batch, r.sc.traceRequests)
		for i := range batches {
			batches[i] = churnBatch(rng, clients, i)
		}
		return r.traceLayers(s, nil, batches, true, reopened.Mutate)
	}
	return nil
}

// contend is the traced run's phases B and C, the mixes that share the
// two cores between several busy parties: every writer flat out for
// batches updates in all (group commit), then one reader walking the
// pool, closed loop, while one writer sends batches more. Every update
// bumps the epoch, so every read misses the caches and runs through the
// overlay, often beside a compaction. Their numbers are reported per
// layer only: they move by a fifth from run to run (README.md).
func (r *run) contend(s *setup, writers []*writer, batches int) {
	var wg sync.WaitGroup
	var remaining atomic.Int64
	remaining.Store(int64(batches))
	acked := -writers[0].lat.n()
	start := time.Now()
	for _, w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for remaining.Add(-1) >= 0 {
				w.step(time.Now())
			}
		}()
	}
	wg.Wait()
	flat := time.Since(start).Seconds()
	for _, w := range writers {
		acked += w.lat.n()
	}
	r.layer["core.flat_out_per_s"] = float64(acked) / flat
	r.infof("phase B: %d updates acknowledged in %.3f s by %d writers", acked, flat, len(writers))

	var reader stretch
	var writing atomic.Bool
	writing.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Pool queries cost from under a millisecond to a quarter second:
		// a shuffled cyclic order gives each run the same mix.
		order := rand.New(rand.NewSource(r.seed + 1)).Perm(len(s.pool))
		n := 0
		reader, _ = r.measureStretch(s, s.ep.addr, 1, func(int) (int, bool) {
			n++
			return order[(n-1)%len(order)], writing.Load()
		})
	}()
	for i := 0; i < batches; i++ {
		writers[0].step(time.Now())
	}
	writing.Store(false)
	wg.Wait()
	r.layer["server.reader_p50_ms"] = reader.p50
	r.layer["server.reader_p95_ms"] = reader.p95
	r.layer["server.reader_per_s"] = reader.queriesPerS
	r.infof("phase C: %d updates beside a reader, who got %d answers (p50 %.3f ms, p%.4g %.3f ms)",
		batches, reader.n, reader.p50, reader.tailQ*100, reader.p95)
}

// checkSet compares db's triple set with want. A difference is a failed
// check: the run reports incorrect.
func (r *run) checkSet(when string, db *amber.DB, want tripleSet) error {
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		return fmt.Errorf("triple-set check %s: %w", when, err)
	}
	g, err := multigraph.Decode(&snap)
	if err != nil {
		return fmt.Errorf("triple-set check %s: %w", when, err)
	}
	var got tripleSet
	delta.NewView(g, nil).Triples(func(t rdf.Triple) bool {
		got.add(t)
		return true
	})
	if got != want {
		r.failed.Add(1)
		r.fail("triple set %s: store holds %d triples (digest %x), acknowledged writes imply %d (digest %x)",
			when, got.n, got.sum, want.n, want.sum)
	}
	r.attempted.Add(1)
	return nil
}

// bulkLoad: identical cycles of load → snapshot → reopen → durable
// Mutate batches → close → recover, then a cold query pass over the
// recovered store. Medians over the cycles are reported.
func (r *run) bulkLoad() error {
	s, err := r.setUp(r.sc.recipe("bulk-load"))
	if err != nil {
		return err
	}
	defer func() { s.close() }()

	// The held-back triples, in a seeded order, are the Mutate batches.
	held := append([]rdf.Triple(nil), s.held...)
	rand.New(rand.NewSource(r.seed)).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	batches := make([]batch, r.sc.bulkBatches)
	var userBytes int64
	for i := range batches {
		batches[i].triples = held[i*batchTriples : (i+1)*batchTriples]
		for _, t := range batches[i].triples {
			batches[i].userBytes += len(t.String()) + 1
		}
		userBytes += int64(batches[i].userBytes)
	}

	var loads, opens, recovers, rates, mutates, heaps, bpt, walRatio []float64
	var ops latencies
	var passes []stretch
	start := time.Now()
	cycles := 0
	for cycles < 3 || time.Since(start).Seconds() < r.seconds {
		walDir := filepath.Join(r.dir, fmt.Sprintf("bulkwal%d", cycles))
		st, err := ingest(s.ntPath, walDir, bulkDurability)
		if err != nil {
			return err
		}
		s.st = st
		st.db.SetCompactThreshold(0) // replay must see every batch
		loads = append(loads, float64(st.triples)/st.loadS)
		opens = append(opens, st.snapOpenS)
		bpt = append(bpt, float64(st.snapBytes)/float64(st.triples))

		runtime.GC() // start the timed loop from a collected heap
		mutStart := time.Now()
		for _, b := range batches {
			t := time.Now()
			r.attempted.Add(1)
			if err := st.db.Mutate(b.triples, nil); err != nil {
				r.failed.Add(1)
				r.fail("mutate: %v", err)
				continue
			}
			ops.add(msSince(t))
		}
		mutates = append(mutates, time.Since(mutStart).Seconds())
		rates = append(rates, float64(len(batches))/mutates[len(mutates)-1])
		dur, ws := st.db.Durability(), st.db.WriteStats()
		walRatio = append(walRatio, float64(dur.WALBytes)/float64(userBytes))
		r.layer["wal.fsyncs"] = float64(dur.Fsyncs)
		r.layer["core.commit_groups"] = float64(ws.Groups)
		r.layer["core.mean_group_size"] = float64(ws.Batches) / float64(max(ws.Groups, 1))
		r.layer["index.bytes"] = float64(st.db.Stats().IndexBytes)
		if err := st.db.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		s.st = nil

		t := time.Now()
		db, err := bulkDurability.open(walDir, snapshotPath(s.ntPath), nil)
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		recovers = append(recovers, time.Since(t).Seconds())
		// Replay runs under the default compaction threshold, so it leaves
		// one compaction running; let it finish before measuring the heap
		// and the first queries.
		db.WaitCompaction()
		db.SetCompactThreshold(0)
		s.st = &store{db: db}
		if got := db.Durability().Replayed; got != len(batches) {
			r.failed.Add(1)
			r.fail("recover: replayed %d records, %d batches were acknowledged", got, len(batches))
		}
		if cycles == 0 {
			// The recovered store must hold the whole corpus, and answer as
			// the oracle does.
			if err := r.checkSet("after recovery", db, s.corpus); err != nil {
				return err
			}
			if err := oracleCheck(db, s.triples, s.pool, r.sc.oracleMin); err != nil {
				return err
			}
			s.triples, s.held = nil, nil
		}
		heaps = append(heaps, liveHeapMB())

		// First answers after the restart: the whole pool, every query a
		// miss on the fresh server, read through the replayed overlay.
		ep, err := serve(db)
		if err != nil {
			return err
		}
		s.ep = ep
		first, qs := r.measureStretch(s, ep.addr, clients, once(inPoolOrder(len(s.pool))))
		if err := r.overhead(ep.addr, 0, qs); err != nil {
			return err
		}
		passes = append(passes, first)
		r.serverCounters(serverStats{}, ep.srv.Stats())
		s.close()
		s.st, s.ep = nil, nil
		cycles++
	}
	r.e2e["load_triples_per_s"] = median(loads)
	r.e2e["snapshot_open_s"] = median(opens)
	r.e2e["bytes_per_triple"] = median(bpt)
	r.e2e["live_heap_mb"] = median(heaps)
	r.e2e["ops_per_s"] = median(rates)
	r.reportOps(&ops)
	r.layer["core.reopen_s"] = median(recovers)
	r.layer["core.mutate_s"] = median(mutates)
	r.reportQueries("passes after recovery", passes)
	r.infof("%d cycles of load, snapshot, reopen, %d Mutate batches of %d triples, close, recover, %d queries",
		cycles, len(batches), batchTriples, len(s.pool))
	r.infof("write-ahead log: %.4f bytes per N-Triples byte of the batches", median(walRatio))
	if r.trace {
		return r.traceLayers(s, nil, batches, false, nil)
	}
	return nil
}

// serverCounters turns the server's own counters, read before and after
// the measured traffic, into the per-layer server metrics.
func (r *run) serverCounters(before, after serverStats) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		r.layer["server.result_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	r.layer["server.plan_cache_entries"] = float64(after.PlanCacheEntries)
	r.layer["server.shed"] = float64(after.Rejected - before.Rejected)
	if a := r.attempted.Load(); a > 0 {
		r.layer["server.failed_frac"] = float64(r.failed.Load()) / float64(a)
	}
}
