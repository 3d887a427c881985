package datagen

import (
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/multigraph"
)

func TestLUBMDeterministic(t *testing.T) {
	a := LUBM(LUBMConfig{Universities: 2, Seed: 7, Compact: true})
	b := LUBM(LUBMConfig{Universities: 2, Seed: 7, Compact: true})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := LUBM(LUBMConfig{Universities: 2, Seed: 8, Compact: true})
	same := len(a) == len(c)
	if same {
		same = false
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestLUBMEdgeTypeCount(t *testing.T) {
	ts := LUBM(LUBMConfig{Universities: 3, Seed: 1, Compact: true})
	g, err := multigraph.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: LUBM has exactly 13 distinct edge types (object predicates).
	if got := g.NumEdgeTypes(); got != 13 {
		t.Errorf("edge types = %d, want 13", got)
	}
	if g.NumAttrs() == 0 {
		t.Error("no literal attributes generated")
	}
	if g.NumTriples() != len(ts) {
		t.Errorf("triples = %d, want %d", g.NumTriples(), len(ts))
	}
}

func TestLUBMScales(t *testing.T) {
	small := LUBM(LUBMConfig{Universities: 1, Seed: 1, Compact: true})
	big := LUBM(LUBMConfig{Universities: 4, Seed: 1, Compact: true})
	if len(big) < 2*len(small) {
		t.Errorf("scaling too weak: 1 univ = %d triples, 4 univ = %d", len(small), len(big))
	}
}

func TestLUBMVocabulary(t *testing.T) {
	ts := LUBM(LUBMConfig{Universities: 1, Seed: 2, Compact: true})
	preds := map[string]bool{}
	for _, tr := range ts {
		preds[tr.P.Value] = true
	}
	for _, want := range []string{"worksFor", "takesCourse", "advisor", "publicationAuthor", "headOf"} {
		if !preds[ubOnt+want] {
			t.Errorf("predicate %s missing", want)
		}
	}
	if got := len(LUBMPredicateIRIs()); got != 13 {
		t.Errorf("LUBMPredicateIRIs = %d, want 13", got)
	}
	for _, p := range LUBMPredicateIRIs() {
		if !strings.HasPrefix(p, ubOnt) {
			t.Errorf("predicate %s not namespaced", p)
		}
	}
}

func TestDBpediaLikeShape(t *testing.T) {
	ts := DBpediaLike(1, 42)
	if len(ts) < 50000 {
		t.Fatalf("triples = %d, want ≥ 50000 at scale 1", len(ts))
	}
	g, err := multigraph.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	// High predicate diversity: most of the 676 should be used.
	if got := g.NumEdgeTypes(); got < 300 {
		t.Errorf("edge types = %d, want several hundred", got)
	}
	if g.NumAttrs() == 0 {
		t.Error("no attributes")
	}
	// Degree skew: the max in-degree should far exceed the average.
	maxIn, totalIn := 0, 0
	var in multigraph.MultiEdges
	for v := 0; v < g.NumVertices(); v++ {
		in.Regroup(g.In(dict.VertexID(v)))
		d := in.Len()
		totalIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	avg := float64(totalIn) / float64(g.NumVertices())
	if float64(maxIn) < 20*avg {
		t.Errorf("degree skew too weak: max=%d avg=%.1f", maxIn, avg)
	}
}

func TestYAGOLikeShape(t *testing.T) {
	ts := YAGOLike(1, 42)
	g, err := multigraph.FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumEdgeTypes(); got < 30 || got > 44 {
		t.Errorf("edge types = %d, want ≈44", got)
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	a := DBpediaLike(1, 9)
	b := DBpediaLike(1, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triple %d differs", i)
		}
	}
}

func TestPowerLawNoSelfLoops(t *testing.T) {
	for _, tr := range PowerLaw(PowerLawConfig{
		EntityNS: "http://e/", PredicateNS: "http://p/",
		Vertices: 50, Predicates: 5, Edges: 2000,
		LiteralTriples: 0, LiteralPredicates: 1, LiteralValues: 1, Seed: 3,
	}) {
		if tr.S == tr.O {
			t.Fatalf("self loop generated: %v", tr)
		}
	}
}
