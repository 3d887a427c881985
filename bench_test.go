// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 7), plus ablations for the design choices DESIGN.md
// calls out. The full text-table reproduction lives in cmd/amber-bench;
// these testing.B benches regenerate the same measurements in benchmark
// form:
//
//	Table 1    → BenchmarkTable1_*        (complex, 50 triplets, DBPEDIA)
//	Table 4    → BenchmarkTable4_Stats    (statistics computation)
//	Table 5    → BenchmarkTable5_*        (offline database/index build)
//	Figures 6–11 → BenchmarkFig{6..11}_*  (star/complex × dataset × engine)
//
// Engine naming: AMbER (this paper), PermStore (x-RDF-3X/Virtuoso class),
// GraphMatch (gStore/TurboHom++ class).
package amber

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/rtree"
	"repro/internal/sparql"
	"repro/internal/workload"

	"repro/internal/dict"
)

// benchConfig is the laptop-scale setting shared by every benchmark.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.QueriesPerPoint = 10
	cfg.Timeout = 250 * time.Millisecond
	cfg.Universities = 2
	return cfg
}

var (
	dsCache = map[string]*experiments.Dataset{}
	dsMu    sync.Mutex
)

func dataset(b *testing.B, name string) *experiments.Dataset {
	b.Helper()
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[name]; ok {
		return d
	}
	d, err := experiments.BuildDataset(name, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	dsCache[name] = d
	return d
}

// benchWorkload pre-generates a workload so the benchmark loop measures
// only query execution. Workloads are cached per (dataset, kind, size)
// with a deterministic seed, so the three engines of one figure point are
// measured on identical queries regardless of benchmark execution order.
var (
	wlCache = map[string][]*sparql.Query{}
	wlMu    sync.Mutex
)

func benchWorkload(b *testing.B, d *experiments.Dataset, kind workload.Kind, size, n int) []*sparql.Query {
	b.Helper()
	key := d.Name + "/" + kind.String() + "/" + itoa2(size) + "/" + itoa2(n)
	wlMu.Lock()
	qs, ok := wlCache[key]
	if !ok {
		seed := int64(size)*1000 + int64(kind) + int64(len(d.Name))
		gen := workload.NewGenerator(d.Triples, seed, workload.DefaultConfig())
		qs = gen.Workload(kind, size, n)
		wlCache[key] = qs
	}
	wlMu.Unlock()
	if len(qs) == 0 {
		b.Skipf("no %v queries of size %d in %s at this scale", kind, size, d.Name)
	}
	return qs
}

func itoa2(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// runEngine executes one full workload sweep per benchmark iteration.
// Sweeping (rather than cycling single queries) keeps per-iteration cost
// uniform: individual queries range from microseconds to the full timeout,
// and Go's b.N estimation from a cheap first iteration would otherwise
// schedule astronomically many timeout-bound ones. ns/op therefore reads
// as "per workload of len(qs) queries".
func runEngine(b *testing.B, d *experiments.Dataset, eng experiments.EngineName, qs []*sparql.Query, timeout time.Duration) {
	b.Helper()
	answered, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			ok, _, _ := d.RunQuery(eng, q, timeout)
			total++
			if ok {
				answered++
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(100*float64(answered)/float64(total), "%answered")
	b.ReportMetric(float64(len(qs)), "queries/op")
}

// ---- Table 1: complex queries of 50 triplets on DBPEDIA ---------------

func benchTable1(b *testing.B, eng experiments.EngineName) {
	d := dataset(b, "DBPEDIA")
	qs := benchWorkload(b, d, workload.Complex, 50, 6)
	runEngine(b, d, eng, qs, benchConfig().Timeout)
}

func BenchmarkTable1_AMbER(b *testing.B)      { benchTable1(b, experiments.AMbER) }
func BenchmarkTable1_PermStore(b *testing.B)  { benchTable1(b, experiments.PermStore) }
func BenchmarkTable1_GraphMatch(b *testing.B) { benchTable1(b, experiments.GraphMatch) }

// ---- Table 4: benchmark statistics -------------------------------------

func BenchmarkTable4_Stats(b *testing.B) {
	ds := []*experiments.Dataset{dataset(b, "DBPEDIA"), dataset(b, "YAGO"), dataset(b, "LUBM")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(ds)
		if len(rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// ---- Table 5: offline stage (database and index construction) ---------

func benchTable5Build(b *testing.B, name string) {
	d := dataset(b, name) // generation cost excluded
	triples := d.Triples
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := multigraph.FromTriples(triples)
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

func BenchmarkTable5_BuildDatabase_DBPEDIA(b *testing.B) { benchTable5Build(b, "DBPEDIA") }
func BenchmarkTable5_BuildDatabase_YAGO(b *testing.B)    { benchTable5Build(b, "YAGO") }
func BenchmarkTable5_BuildDatabase_LUBM(b *testing.B)    { benchTable5Build(b, "LUBM") }

func benchTable5Index(b *testing.B, name string) {
	d := dataset(b, name)
	g := d.Amber.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.Build(g)
		_ = ix
	}
}

func BenchmarkTable5_BuildIndex_DBPEDIA(b *testing.B) { benchTable5Index(b, "DBPEDIA") }
func BenchmarkTable5_BuildIndex_YAGO(b *testing.B)    { benchTable5Index(b, "YAGO") }
func BenchmarkTable5_BuildIndex_LUBM(b *testing.B)    { benchTable5Index(b, "LUBM") }

// ---- Figures 6–11: star/complex × dataset × engine --------------------

func benchFigure(b *testing.B, ds string, kind workload.Kind, size int, eng experiments.EngineName) {
	d := dataset(b, ds)
	qs := benchWorkload(b, d, kind, size, 6)
	runEngine(b, d, eng, qs, benchConfig().Timeout)
}

// Figure 6: star-shaped queries on DBPEDIA.
func BenchmarkFig6_Star_DBPEDIA_Size10_AMbER(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 10, experiments.AMbER)
}
func BenchmarkFig6_Star_DBPEDIA_Size10_PermStore(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 10, experiments.PermStore)
}
func BenchmarkFig6_Star_DBPEDIA_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 10, experiments.GraphMatch)
}
func BenchmarkFig6_Star_DBPEDIA_Size40_AMbER(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 40, experiments.AMbER)
}
func BenchmarkFig6_Star_DBPEDIA_Size40_PermStore(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 40, experiments.PermStore)
}
func BenchmarkFig6_Star_DBPEDIA_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Star, 40, experiments.GraphMatch)
}

// Figure 7: complex-shaped queries on DBPEDIA.
func BenchmarkFig7_Complex_DBPEDIA_Size10_AMbER(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 10, experiments.AMbER)
}
func BenchmarkFig7_Complex_DBPEDIA_Size10_PermStore(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 10, experiments.PermStore)
}
func BenchmarkFig7_Complex_DBPEDIA_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 10, experiments.GraphMatch)
}
func BenchmarkFig7_Complex_DBPEDIA_Size40_AMbER(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 40, experiments.AMbER)
}
func BenchmarkFig7_Complex_DBPEDIA_Size40_PermStore(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 40, experiments.PermStore)
}
func BenchmarkFig7_Complex_DBPEDIA_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "DBPEDIA", workload.Complex, 40, experiments.GraphMatch)
}

// Figure 8: star-shaped queries on YAGO.
func BenchmarkFig8_Star_YAGO_Size10_AMbER(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 10, experiments.AMbER)
}
func BenchmarkFig8_Star_YAGO_Size10_PermStore(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 10, experiments.PermStore)
}
func BenchmarkFig8_Star_YAGO_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 10, experiments.GraphMatch)
}
func BenchmarkFig8_Star_YAGO_Size40_AMbER(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 40, experiments.AMbER)
}
func BenchmarkFig8_Star_YAGO_Size40_PermStore(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 40, experiments.PermStore)
}
func BenchmarkFig8_Star_YAGO_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "YAGO", workload.Star, 40, experiments.GraphMatch)
}

// Figure 9: complex-shaped queries on YAGO.
func BenchmarkFig9_Complex_YAGO_Size10_AMbER(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 10, experiments.AMbER)
}
func BenchmarkFig9_Complex_YAGO_Size10_PermStore(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 10, experiments.PermStore)
}
func BenchmarkFig9_Complex_YAGO_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 10, experiments.GraphMatch)
}
func BenchmarkFig9_Complex_YAGO_Size40_AMbER(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 40, experiments.AMbER)
}
func BenchmarkFig9_Complex_YAGO_Size40_PermStore(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 40, experiments.PermStore)
}
func BenchmarkFig9_Complex_YAGO_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "YAGO", workload.Complex, 40, experiments.GraphMatch)
}

// Figure 10: star-shaped queries on LUBM.
func BenchmarkFig10_Star_LUBM_Size10_AMbER(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 10, experiments.AMbER)
}
func BenchmarkFig10_Star_LUBM_Size10_PermStore(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 10, experiments.PermStore)
}
func BenchmarkFig10_Star_LUBM_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 10, experiments.GraphMatch)
}
func BenchmarkFig10_Star_LUBM_Size40_AMbER(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 40, experiments.AMbER)
}
func BenchmarkFig10_Star_LUBM_Size40_PermStore(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 40, experiments.PermStore)
}
func BenchmarkFig10_Star_LUBM_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "LUBM", workload.Star, 40, experiments.GraphMatch)
}

// Figure 11: complex-shaped queries on LUBM.
func BenchmarkFig11_Complex_LUBM_Size10_AMbER(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 10, experiments.AMbER)
}
func BenchmarkFig11_Complex_LUBM_Size10_PermStore(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 10, experiments.PermStore)
}
func BenchmarkFig11_Complex_LUBM_Size10_GraphMatch(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 10, experiments.GraphMatch)
}
func BenchmarkFig11_Complex_LUBM_Size40_AMbER(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 40, experiments.AMbER)
}
func BenchmarkFig11_Complex_LUBM_Size40_PermStore(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 40, experiments.PermStore)
}
func BenchmarkFig11_Complex_LUBM_Size40_GraphMatch(b *testing.B) {
	benchFigure(b, "LUBM", workload.Complex, 40, experiments.GraphMatch)
}

// ---- Ablations ----------------------------------------------------------

// BenchmarkAblation_SIndexBulkLoad: the STR bulk load of the signature
// index over LUBM's vertex synopses.
func BenchmarkAblation_SIndexBulkLoad(b *testing.B) {
	g := dataset(b, "LUBM").Amber.Graph()
	n := g.NumVertices()
	points := make([]rtree.Point, n)
	ids := make([]uint32, n)
	for v := 0; v < n; v++ {
		points[v] = rtree.Point(g.VertexSynopsis(dict.VertexID(v)))
		ids[v] = uint32(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rtree.BulkLoad(points, ids)
		if t.Len() != n {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkAblation_OTIL compares the neighbourhood index's two lookup
// strategies: inverted-list intersection vs trie walk.
func buildAblationTrie() (*otil.Trie, [][]dict.EdgeType) {
	var tr otil.Trie
	var queries [][]dict.EdgeType
	for v := dict.VertexID(0); v < 3000; v++ {
		a := dict.EdgeType(v % 13)
		bt := dict.EdgeType((v * 7) % 13)
		if a == bt {
			bt = (bt + 1) % 13
		}
		if a > bt {
			a, bt = bt, a
		}
		tr.Insert([]dict.EdgeType{a, bt}, v)
		if v%100 == 0 {
			queries = append(queries, []dict.EdgeType{a, bt})
		}
	}
	tr.Finalize()
	return &tr, queries
}

func BenchmarkAblation_OTILInvertedList(b *testing.B) {
	tr, queries := buildAblationTrie()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Lookup(queries[i%len(queries)]); len(got) == 0 {
			b.Fatal("empty lookup")
		}
	}
}

func BenchmarkAblation_OTILTrieWalk(b *testing.B) {
	tr, queries := buildAblationTrie()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.LookupTrie(queries[i%len(queries)]); len(got) == 0 {
			b.Fatal("empty lookup")
		}
	}
}

// BenchmarkAblation_CountVsStream isolates the satellite factorization: the
// same star query counted via Cartesian products vs fully enumerated.
//
// Generated queries can have astronomically many embeddings (a star's
// count is the product of its satellite candidate sets), so the helper
// selects one whose total count is bounded — enumeration must terminate.
func ablationBoundedQuery(b *testing.B, d *experiments.Dataset, kind workload.Kind, size int, maxCount uint64) *sparql.Query {
	b.Helper()
	for _, q := range d.Gen.Workload(kind, size, 25) {
		qg, err := d.Amber.PrepareQuery(q)
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		n, err := qg.Count(engine.Options{Ctx: ctx})
		cancel()
		if err == nil && n > 0 && n <= maxCount {
			return q
		}
	}
	b.Skip("no bounded query found at this scale")
	return nil
}

func BenchmarkAblation_FactorizedCount(b *testing.B) {
	d := dataset(b, "LUBM")
	q := ablationBoundedQuery(b, d, workload.Star, 8, 100_000)
	qg, err := d.Amber.PrepareQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qg.Count(engine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_EnumeratedCount(b *testing.B) {
	d := dataset(b, "LUBM")
	q := ablationBoundedQuery(b, d, workload.Star, 8, 100_000)
	qg, err := d.Amber.PrepareQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := engine.Stream(d.Amber.Snapshot().Reader(), qg.Plan(), engine.Options{}, func([]dict.VertexID) bool {
			n++
			return true
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SnapshotLoad compares loading a binary snapshot with
// re-parsing the N-Triples source (the offline stage's two entry points).
func BenchmarkAblation_SnapshotLoad(b *testing.B) {
	d := dataset(b, "LUBM")
	var buf bytes.Buffer
	if err := d.Amber.Save(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadStore(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_NTriplesLoad(b *testing.B) {
	d := dataset(b, "LUBM")
	var sb strings.Builder
	enc := rdf.NewEncoder(&sb)
	for _, t := range d.Triples {
		if err := enc.Encode(t); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		b.Fatal(err)
	}
	src := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewStoreFromReader(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInitialCandidates times the CandInit kernel (Algorithm 3,
// l. 4–5) that opens every component of every run: with the initial
// vertex left open (the S probe: R-tree walk plus the sort into id order)
// and with it fixed by Algorithm 1 (the same probe, then ∩ Fixed), over
// the frozen base and through a non-empty overlay.
func BenchmarkInitialCandidates(b *testing.B) {
	d := dataset(b, "DBPEDIA")
	g, ix := d.Amber.Snapshot().Delta.Base()
	var anchor rdf.Triple
	for _, t := range d.Triples {
		if !t.O.IsLiteral() {
			anchor = t
			break
		}
	}
	fresh := func(s string) rdf.Term { return rdf.NewIRI("http://bench.example.org/" + s) }
	view, err := delta.NewView(g, ix).Apply([]rdf.Triple{
		{S: fresh("a"), P: anchor.P, O: anchor.O},
		{S: anchor.S, P: anchor.P, O: fresh("b")},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	queries := map[string]string{
		"unfixed": "SELECT * WHERE { ?x <" + anchor.P.Value + "> ?y . ?x <" + anchor.P.Value + "> ?z }",
		"fixed":   "SELECT * WHERE { ?x <" + anchor.P.Value + "> <" + anchor.O.Value + "> . ?x <" + anchor.P.Value + "> ?z }",
	}
	readers := map[string]interface {
		index.Reader
		dict.Resolver
	}{"base": delta.NewView(g, ix), "overlay": view}
	for qname, src := range queries {
		pq, err := sparql.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		for rname, r := range readers {
			qg, err := query.Build(pq, r)
			if err != nil {
				b.Fatal(err)
			}
			p := plan.For(qg, r)
			u := p.Components[0].Core[0]
			if p.IsFixed[u] != (qname == "fixed") {
				b.Fatalf("%s: initial vertex fixed = %v", qname, p.IsFixed[u])
			}
			b.Run(qname+"/"+rname, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(engine.InitialCandidates(r, p, u)) == 0 {
						b.Fatal("no initial candidates")
					}
				}
			})
		}
	}
}

// BenchmarkNeighborsHub probes N at the data graph's highest-degree
// vertex: a single-type probe (the stored list, no copy) and a two-type
// probe (one intersection into one slice).
func BenchmarkNeighborsHub(b *testing.B) {
	g, ix := dataset(b, "DBPEDIA").Amber.Snapshot().Delta.Base()
	hub, degree := dict.VertexID(0), 0
	var in multigraph.MultiEdges
	for v := 0; v < g.NumVertices(); v++ {
		if in.Regroup(g.In(dict.VertexID(v))); in.Len() > degree {
			hub, degree = dict.VertexID(v), in.Len()
		}
	}
	in.Regroup(g.In(hub))
	single := in.Types(0)[:1]
	multi := single
	for i := 0; i < in.Len(); i++ {
		if ts := in.Types(i); len(ts) > 1 {
			multi = ts[:2]
			break
		}
	}
	r := index.NewReader(g, ix)
	for name, q := range map[string][]dict.EdgeType{"single": single, "multi": multi} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(r.Neighbors(hub, index.Incoming, q)) == 0 {
					b.Fatal("empty probe")
				}
			}
		})
	}
}
