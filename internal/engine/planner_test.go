package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

// skewedFixture builds a small power-law (DBpedia-like) corpus: heavy
// degree skew and Zipf predicate usage, exactly the regime where a
// data-aware matching order diverges from the structural heuristic.
func skewedFixture(tb testing.TB, seed int64) (*multigraph.Graph, *index.Index, []rdf.Triple) {
	tb.Helper()
	triples := datagen.PowerLaw(datagen.PowerLawConfig{
		EntityNS:          "http://pl.example.org/resource/",
		PredicateNS:       "http://pl.example.org/ontology/",
		Vertices:          1200,
		Predicates:        80,
		Edges:             6000,
		LiteralTriples:    2000,
		LiteralPredicates: 12,
		LiteralValues:     15,
		Seed:              seed,
	})
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		tb.Fatal(err)
	}
	return g, index.Build(g), triples
}

// TestPlannerEquivalence is the planner-correctness property: for
// generated workloads over a skewed power-law graph, the cost-based and
// heuristic matching orders must produce identical Count results — order
// affects speed, never answers.
func TestPlannerEquivalence(t *testing.T) {
	g, ix, triples := skewedFixture(t, 42)
	gen := workload.NewGenerator(triples, 7, workload.DefaultConfig())
	checked := 0
	for _, kind := range []workload.Kind{workload.Star, workload.Complex} {
		for _, size := range []int{3, 5, 8, 12} {
			for _, q := range gen.Workload(kind, size, 8) {
				qg, err := query.Build(q, g.Terms())
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				opts := Options{Ctx: ctx}
				cost, err := Count(index.NewReader(g, ix), plan.CostBased().Plan(qg, index.NewReader(g, ix)), opts)
				if err != nil {
					cancel()
					continue // deadline on a pathological query: nothing to compare
				}
				heur, err := Count(index.NewReader(g, ix), plan.Heuristic().Plan(qg, index.NewReader(g, ix)), opts)
				cancel()
				if err != nil {
					continue
				}
				if cost != heur {
					t.Fatalf("%v size %d: cost-based count %d != heuristic count %d\nquery:\n%s",
						kind, size, cost, heur, q)
				}
				checked++
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d queries compared; workload generation degenerate", checked)
	}
}

// TestPlannerEquivalenceStream: streamed embedding multisets (not just
// counts) must coincide across planners on a sample of queries.
func TestPlannerEquivalenceStream(t *testing.T) {
	g, ix, triples := skewedFixture(t, 99)
	gen := workload.NewGenerator(triples, 13, workload.DefaultConfig())
	for _, q := range gen.Workload(workload.Complex, 6, 5) {
		qg, err := query.Build(q, g.Terms())
		if err != nil {
			t.Fatal(err)
		}
		sets := make([]map[string]int, 2)
		for i, pl := range []plan.Planner{plan.CostBased(), plan.Heuristic()} {
			seen := map[string]int{}
			err := Stream(index.NewReader(g, ix), pl.Plan(qg, index.NewReader(g, ix)), Options{}, func(asg []dict.VertexID) bool {
				key := make([]byte, 0, 4*len(asg))
				for _, v := range asg {
					key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
				}
				seen[string(key)]++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			sets[i] = seen
		}
		if len(sets[0]) != len(sets[1]) {
			t.Fatalf("embedding sets differ in size: cost=%d heuristic=%d\nquery:\n%s",
				len(sets[0]), len(sets[1]), q)
		}
		for k, n := range sets[0] {
			if sets[1][k] != n {
				t.Fatalf("embedding multiplicity differs under planners\nquery:\n%s", q)
			}
		}
	}
}

// hubTrapFixture builds the skew pattern where a structure-only order is
// maximally wrong: every one of n hubs carries the three satellite-feeding
// common predicates (so the paper's r1 rank makes ?hub the first core
// vertex), but only k of the n chains continue over the rare predicate.
// A data-aware order starts from the k rare-edge endpoints instead of the
// n hubs.
func hubTrapFixture(tb testing.TB, n, k int) (*multigraph.Graph, *index.Index, *sparql.Query) {
	tb.Helper()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://sk/" + s) }
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		hub := iri(fmt.Sprintf("hub%d", i))
		ts = append(ts,
			rdf.Triple{S: hub, P: iri("p1"), O: iri(fmt.Sprintf("a%d", i%50))},
			rdf.Triple{S: hub, P: iri("p2"), O: iri(fmt.Sprintf("b%d", i%50))},
			rdf.Triple{S: hub, P: iri("p3"), O: iri(fmt.Sprintf("c%d", i%50))},
			rdf.Triple{S: hub, P: iri("p0"), O: iri(fmt.Sprintf("mid%d", i))},
		)
	}
	for i := 0; i < k; i++ {
		ts = append(ts,
			rdf.Triple{S: iri(fmt.Sprintf("mid%d", i)), P: iri("rare"), O: iri(fmt.Sprintf("t%d", i))},
			rdf.Triple{S: iri(fmt.Sprintf("t%d", i)), P: iri("p4"), O: iri(fmt.Sprintf("u%d", i))},
		)
	}
	g, err := multigraph.FromTriples(ts)
	if err != nil {
		tb.Fatal(err)
	}
	pq, err := sparql.Parse(`SELECT * WHERE {
  ?hub <http://sk/p1> ?s1 .
  ?hub <http://sk/p2> ?s2 .
  ?hub <http://sk/p3> ?s3 .
  ?hub <http://sk/p0> ?mid .
  ?mid <http://sk/rare> ?t .
  ?t <http://sk/p4> ?u .
}`)
	if err != nil {
		tb.Fatal(err)
	}
	return g, index.Build(g), pq
}

// TestCostBasedBeatsHeuristicOnSkew asserts the planner's payoff
// deterministically (search-effort counters rather than wall clock): on
// the hub-trap skew both planners agree on the answer, but the cost-based
// order explores far fewer initial candidates and recursions.
func TestCostBasedBeatsHeuristicOnSkew(t *testing.T) {
	g, ix, pq := hubTrapFixture(t, 2000, 5)
	qg, err := query.Build(pq, g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	var costStats, heurStats Stats
	cost, err := Count(index.NewReader(g, ix), plan.CostBased().Plan(qg, index.NewReader(g, ix)), Options{Stats: &costStats})
	if err != nil {
		t.Fatal(err)
	}
	heur, err := Count(index.NewReader(g, ix), plan.Heuristic().Plan(qg, index.NewReader(g, ix)), Options{Stats: &heurStats})
	if err != nil {
		t.Fatal(err)
	}
	if cost != heur || cost != 5 {
		t.Fatalf("counts: cost=%d heuristic=%d, want 5", cost, heur)
	}
	if costStats.InitCandidates*10 > heurStats.InitCandidates {
		t.Errorf("cost-based init candidates %d not ≪ heuristic %d",
			costStats.InitCandidates, heurStats.InitCandidates)
	}
	if costStats.Recursions > heurStats.Recursions {
		t.Errorf("cost-based recursions %d > heuristic %d",
			costStats.Recursions, heurStats.Recursions)
	}
}

// BenchmarkPlannerSkewed times the same hub trap: the workload where the
// data-aware order must show a real wall-clock win.
func BenchmarkPlannerSkewed(b *testing.B) {
	g, ix, pq := hubTrapFixture(b, 2000, 5)
	qg, err := query.Build(pq, g.Terms())
	if err != nil {
		b.Fatal(err)
	}
	for _, pl := range []plan.Planner{plan.Heuristic(), plan.CostBased()} {
		p := pl.Plan(qg, index.NewReader(g, ix))
		b.Run("planner="+pl.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := Count(index.NewReader(g, ix), p, Options{})
				if err != nil || n != 5 {
					b.Fatalf("count = %d, %v", n, err)
				}
			}
		})
	}
}

// benchQueries picks satisfiable workload queries whose counts are
// bounded, so benchmark iterations measure search effort rather than
// result-set explosion.
func benchQueries(b *testing.B, g *multigraph.Graph, ix *index.Index, triples []rdf.Triple, kind workload.Kind, size, n int) []*sparql.Query {
	b.Helper()
	gen := workload.NewGenerator(triples, 23, workload.DefaultConfig())
	var out []*sparql.Query
	for _, q := range gen.Workload(kind, size, n*4) {
		qg, err := query.Build(q, g.Terms())
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		cnt, err := Count(index.NewReader(g, ix), plan.Heuristic().Plan(qg, index.NewReader(g, ix)), Options{Ctx: ctx})
		cancel()
		if err != nil || cnt == 0 || cnt > 1_000_000 {
			continue
		}
		out = append(out, q)
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		b.Skip("no bounded satisfiable queries at this scale")
	}
	return out
}

// BenchmarkPlanner compares matching-order planners on a skewed power-law
// corpus. Sub-benchmark names are benchstat-friendly: run with
//
//	go test ./internal/engine -bench 'BenchmarkPlanner' -count 10 | benchstat -col /planner -
//
// to see heuristic vs cost side by side per shape.
func BenchmarkPlanner(b *testing.B) {
	g, ix, triples := skewedFixture(b, 2016)
	shapes := []struct {
		name string
		kind workload.Kind
		size int
	}{
		{"star8", workload.Star, 8},
		{"complex12", workload.Complex, 12},
	}
	planners := []plan.Planner{plan.Heuristic(), plan.CostBased()}
	for _, sh := range shapes {
		queries := benchQueries(b, g, ix, triples, sh.kind, sh.size, 10)
		for _, pl := range planners {
			plans := make([]*plan.Plan, len(queries))
			for i, q := range queries {
				qg, err := query.Build(q, g.Terms())
				if err != nil {
					b.Fatal(err)
				}
				plans[i] = pl.Plan(qg, index.NewReader(g, ix))
			}
			b.Run("shape="+sh.name+"/planner="+pl.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Count(index.NewReader(g, ix), plans[i%len(plans)], Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanning measures plan construction itself (both planners),
// since prepared queries amortize it but ad-hoc queries pay it per run.
func BenchmarkPlanning(b *testing.B) {
	g, ix, triples := skewedFixture(b, 2016)
	queries := benchQueries(b, g, ix, triples, workload.Complex, 12, 10)
	qgs := make([]*query.Graph, len(queries))
	for i, q := range queries {
		qg, err := query.Build(q, g.Terms())
		if err != nil {
			b.Fatal(err)
		}
		qgs[i] = qg
	}
	for _, pl := range []plan.Planner{plan.Heuristic(), plan.CostBased()} {
		b.Run("planner="+pl.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p := pl.Plan(qgs[i%len(qgs)], index.NewReader(g, ix)); p == nil {
					b.Fatal("nil plan")
				}
			}
		})
	}
}
