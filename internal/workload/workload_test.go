package workload

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func testData(t *testing.T) []rdf.Triple {
	t.Helper()
	return datagen.LUBM(datagen.LUBMConfig{Universities: 2, Seed: 5, Compact: true})
}

func TestStarShape(t *testing.T) {
	ts := testData(t)
	g := NewGenerator(ts, 11, DefaultConfig())
	q, ok := g.Generate(Star, 5)
	if !ok {
		t.Fatal("star generation failed")
	}
	if len(q.Patterns) != 5 {
		t.Fatalf("patterns = %d, want 5", len(q.Patterns))
	}
	// Star property: one entity participates in every pattern. Collect the
	// terms per pattern and intersect.
	common := map[string]bool{}
	for i, p := range q.Patterns {
		here := map[string]bool{
			p.S.Kind.String() + "|" + p.S.Value: true,
			p.O.Kind.String() + "|" + p.O.Value: true,
		}
		if i == 0 {
			common = here
			continue
		}
		for k := range common {
			if !here[k] {
				delete(common, k)
			}
		}
	}
	if len(common) == 0 {
		t.Errorf("no central entity shared by all patterns:\n%s", q)
	}
}

func TestComplexConnected(t *testing.T) {
	ts := testData(t)
	g := NewGenerator(ts, 13, DefaultConfig())
	q, ok := g.Generate(Complex, 8)
	if !ok {
		t.Fatal("complex generation failed")
	}
	if len(q.Patterns) != 8 {
		t.Fatalf("patterns = %d, want 8", len(q.Patterns))
	}
	// Connectivity: union-find over pattern terms.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] == "" || parent[x] == x {
			parent[x] = x
			return x
		}
		r := find(parent[x])
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	keyOf := func(tm sparql.Term) string { return tm.Kind.String() + "|" + tm.Value }
	for _, p := range q.Patterns {
		union(keyOf(p.S), keyOf(p.S))
		if p.O.Kind != sparql.Literal {
			union(keyOf(p.S), keyOf(p.O))
		}
	}
	roots := map[string]bool{}
	for _, p := range q.Patterns {
		roots[find(keyOf(p.S))] = true
	}
	if len(roots) != 1 {
		t.Errorf("complex query has %d components, want 1:\n%s", len(roots), q)
	}
}

// TestGeneratedQueriesSatisfiable is the generator's core guarantee: every
// sampled query has at least one embedding (the identity assignment).
func TestGeneratedQueriesSatisfiable(t *testing.T) {
	ts := testData(t)
	g, err := multigraph.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(g)
	gen := NewGenerator(ts, 17, DefaultConfig())
	for _, kind := range []Kind{Star, Complex} {
		for _, size := range []int{2, 4, 6, 10} {
			for i := 0; i < 10; i++ {
				q, ok := gen.Generate(kind, size)
				if !ok {
					t.Fatalf("%v size %d: generation failed", kind, size)
				}
				qg, err := query.Build(q, g.Terms())
				if err != nil {
					t.Fatal(err)
				}
				n, err := engine.Count(index.NewReader(g, ix), plan.For(qg, index.NewReader(g, ix)), engine.Options{Limit: 1})
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatalf("%v size %d: generated unsatisfiable query:\n%s", kind, size, q)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	ts := testData(t)
	a := NewGenerator(ts, 23, DefaultConfig()).Workload(Star, 4, 5)
	b := NewGenerator(ts, 23, DefaultConfig()).Workload(Star, 4, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Errorf("query %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

func TestImpossibleSizeFails(t *testing.T) {
	ts, _ := rdf.ParseString(`<http://x/a> <http://y/p> <http://x/b> .`)
	g := NewGenerator(ts, 1, DefaultConfig())
	if _, ok := g.Generate(Star, 50); ok {
		t.Error("star of size 50 from one triple should fail")
	}
	if _, ok := g.Generate(Complex, 50); ok {
		t.Error("complex of size 50 from one triple should fail")
	}
}

func TestEmptyDataset(t *testing.T) {
	g := NewGenerator(nil, 1, DefaultConfig())
	if g.NumEntities() != 0 {
		t.Error("entities on empty dataset")
	}
	if _, ok := g.Generate(Star, 1); ok {
		t.Error("generation from empty dataset should fail")
	}
}

func TestWorkloadCount(t *testing.T) {
	ts := testData(t)
	g := NewGenerator(ts, 29, DefaultConfig())
	qs := g.Workload(Complex, 5, 8)
	if len(qs) != 8 {
		t.Errorf("workload = %d queries, want 8", len(qs))
	}
}

func TestKindString(t *testing.T) {
	if Star.String() != "star" || Complex.String() != "complex" {
		t.Errorf("kind strings: %s %s", Star, Complex)
	}
}

func TestQueriesParseable(t *testing.T) {
	ts := testData(t)
	g := NewGenerator(ts, 31, DefaultConfig())
	for i := 0; i < 5; i++ {
		q, ok := g.Generate(Complex, 6)
		if !ok {
			t.Fatal("generation failed")
		}
		if _, err := sparql.Parse(q.String()); err != nil {
			t.Errorf("generated query does not re-parse: %v\n%s", err, q)
		}
	}
}
