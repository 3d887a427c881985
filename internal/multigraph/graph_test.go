package multigraph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// figure1 is the RDF tripleset of the paper's running example (Figure 1a).
const figure1 = `
@prefix x: <http://dbpedia.org/resource/> .
@prefix y: <http://dbpedia.org/ontology/> .
x:London y:isPartOf x:England .
x:England y:hasCapital x:London .
x:Christopher_Nolan y:wasBornIn x:London .
x:Christopher_Nolan y:livedIn x:England .
x:Christopher_Nolan y:isPartOf x:Dark_Knight_Trilogy .
x:London y:hasStadium x:WembleyStadium .
x:WembleyStadium y:hasCapacityOf "90000" .
x:Amy_Winehouse y:wasBornIn x:London .
x:Amy_Winehouse y:diedIn x:London .
x:Amy_Winehouse y:wasPartOf x:Music_Band .
x:Music_Band y:hasName "MCA_Band" .
x:Music_Band y:foundedIn "1994" .
x:Music_Band y:wasFormedIn x:London .
x:Amy_Winehouse y:livedIn x:United_States .
x:Amy_Winehouse y:wasMarriedTo x:Blake_Fielder-Civil .
x:Blake_Fielder-Civil y:livedIn x:United_States .
`

func buildFigure1(t *testing.T) *Graph {
	t.Helper()
	triples, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatalf("parse figure1: %v", err)
	}
	g, err := FromTriples(triples)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func vid(t *testing.T, g *Graph, iri string) dict.VertexID {
	t.Helper()
	v, ok := g.Terms().LookupVertex("http://dbpedia.org/resource/" + iri)
	if !ok {
		t.Fatalf("vertex %q not found", iri)
	}
	return v
}

func etype(t *testing.T, g *Graph, pred string) dict.EdgeType {
	t.Helper()
	e, ok := g.Terms().LookupEdgeType("http://dbpedia.org/ontology/" + pred)
	if !ok {
		t.Fatalf("edge type %q not found", pred)
	}
	return e
}

func TestFigure1Statistics(t *testing.T) {
	g := buildFigure1(t)
	if got := g.NumTriples(); got != 16 {
		t.Errorf("NumTriples = %d, want 16", got)
	}
	// 9 IRI vertices (Figure 1c has v0..v8).
	if got := g.NumVertices(); got != 9 {
		t.Errorf("NumVertices = %d, want 9", got)
	}
	// 13 edge triples collapse to 12 distinct directed pairs (wasBornIn and
	// diedIn share the Amy→London pair).
	if got := g.NumEdges(); got != 12 {
		t.Errorf("NumEdges = %d, want 12", got)
	}
	// 9 predicates connect IRIs; 3 predicates only ever reach literals.
	if got := g.NumEdgeTypes(); got != 9 {
		t.Errorf("NumEdgeTypes = %d, want 9", got)
	}
	if got := g.NumAttrs(); got != 3 {
		t.Errorf("NumAttrs = %d, want 3", got)
	}
}

func TestFigure1Attributes(t *testing.T) {
	g := buildFigure1(t)
	wembley := vid(t, g, "WembleyStadium")
	band := vid(t, g, "Music_Band")
	london := vid(t, g, "London")

	if got := g.Attrs(wembley); len(got) != 1 {
		t.Fatalf("Wembley attrs = %v, want 1 attribute", got)
	} else if a := g.Terms().Attr(got[0]); a.Lexical != "90000" {
		t.Errorf("Wembley attribute = %v", a)
	}
	if got := g.Attrs(band); len(got) != 2 {
		t.Errorf("Music_Band attrs = %v, want 2 attributes", got)
	}
	if got := g.Attrs(london); len(got) != 0 {
		t.Errorf("London attrs = %v, want none", got)
	}

	if !g.HasAttrs(band, g.Attrs(band)) {
		t.Error("HasAttrs(all own attrs) = false")
	}
	if g.HasAttrs(london, g.Attrs(band)) {
		t.Error("London should not have Music_Band's attributes")
	}
	if !g.HasAttrs(london, nil) {
		t.Error("empty attribute requirement must always hold")
	}
}

func TestFigure1MultiEdge(t *testing.T) {
	g := buildFigure1(t)
	amy := vid(t, g, "Amy_Winehouse")
	london := vid(t, g, "London")
	born := etype(t, g, "wasBornIn")
	died := etype(t, g, "diedIn")

	types := g.EdgeTypes(amy, london)
	if len(types) != 2 {
		t.Fatalf("EdgeTypes(Amy, London) = %v, want 2 types", types)
	}
	if !g.HasEdgeTypes(amy, london, []dict.EdgeType{min(born, died), max(born, died)}) {
		t.Error("multi-edge {wasBornIn, diedIn} not found")
	}
	if g.EdgeTypes(london, amy) != nil {
		t.Error("reverse edge should not exist (directed)")
	}
	if g.EdgeTypes(amy, amy) != nil {
		t.Error("self edge should not exist")
	}
}

func TestInOutConsistency(t *testing.T) {
	g := buildFigure1(t)
	// Every out-edge must appear as an in-edge on the other side, with the
	// identical type set, and vice versa.
	for v := 0; v < g.NumVertices(); v++ {
		out := g.Out(dict.VertexID(v))
		for i := 0; i < out.Len(); i++ {
			w := out.V(i)
			found := false
			in := g.In(w)
			for j := 0; j < in.Len(); j++ {
				if in.V(j) == dict.VertexID(v) {
					found = true
					if !slices.Equal(in.Types(j), out.Types(i)) {
						t.Errorf("type sets differ on %d→%d", v, w)
					}
				}
			}
			if !found {
				t.Errorf("edge %d→%d missing from in-list", v, w)
			}
		}
	}
}

func TestAdjacencySorted(t *testing.T) {
	g := buildFigure1(t)
	for v := 0; v < g.NumVertices(); v++ {
		for _, adj := range []Adjacency{g.Out(dict.VertexID(v)), g.In(dict.VertexID(v))} {
			for i := 1; i < adj.Len(); i++ {
				if adj.V(i-1) >= adj.V(i) {
					t.Fatalf("adjacency of %d not sorted: %v", v, adj)
				}
			}
			var all []dict.EdgeType
			for i := 0; i < adj.Len(); i++ {
				if ts := adj.Types(i); len(ts) == 0 || !slices.IsSorted(ts) || len(slices.Compact(slices.Clone(ts))) != len(ts) {
					t.Fatalf("types of %d→%d not sorted and unique: %v", v, adj.V(i), ts)
				}
				all = append(all, adj.Types(i)...)
			}
			if !slices.Equal(adj.AllTypes(), all) {
				t.Fatalf("AllTypes of %d = %v, want the multi-edges concatenated: %v", v, adj.AllTypes(), all)
			}
		}
	}
}

func TestBuilderRejectsBadTriples(t *testing.T) {
	var b Builder
	lit := rdf.NewLiteral("x")
	iri := rdf.NewIRI("http://x/a")
	if err := b.Add(rdf.Triple{S: lit, P: iri, O: iri}); err == nil {
		t.Error("literal subject accepted")
	}
	if err := b.Add(rdf.Triple{S: iri, P: lit, O: iri}); err == nil {
		t.Error("literal predicate accepted")
	}
	if err := b.AddAll([]rdf.Triple{{S: iri, P: iri, O: lit}, {S: lit, P: iri, O: iri}}); err == nil {
		t.Error("AddAll should stop at bad triple")
	}
}

func TestDuplicateTriplesCollapse(t *testing.T) {
	src := `<http://x/a> <http://y/p> <http://x/b> .
<http://x/a> <http://y/p> <http://x/b> .
<http://x/a> <http://y/q> "1" .
<http://x/a> <http://y/q> "1" .
`
	triples, err := rdf.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	a, _ := g.Terms().LookupVertex("http://x/a")
	if got := g.Attrs(a); len(got) != 1 {
		t.Errorf("attrs = %v, want 1", got)
	}
	if ts := g.EdgeTypes(a, 1); len(ts) != 1 {
		t.Errorf("edge types = %v, want 1", ts)
	}
	if g.NumTriples() != 4 {
		t.Errorf("NumTriples = %d, want 4 (raw count)", g.NumTriples())
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromTriples(nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.NumAttrs() != 0 {
		t.Errorf("empty graph has content: V=%d E=%d A=%d",
			g.NumVertices(), g.NumEdges(), g.NumAttrs())
	}
}

func TestContainsTypes(t *testing.T) {
	tests := []struct {
		have, want []dict.EdgeType
		ok         bool
	}{
		{[]dict.EdgeType{1, 3, 5}, []dict.EdgeType{3}, true},
		{[]dict.EdgeType{1, 3, 5}, []dict.EdgeType{1, 5}, true},
		{[]dict.EdgeType{1, 3, 5}, []dict.EdgeType{1, 3, 5}, true},
		{[]dict.EdgeType{1, 3, 5}, nil, true},
		{[]dict.EdgeType{1, 3, 5}, []dict.EdgeType{2}, false},
		{[]dict.EdgeType{1, 3, 5}, []dict.EdgeType{1, 2}, false},
		{[]dict.EdgeType{3}, []dict.EdgeType{3, 3}, false}, // multiset: need two
		{nil, []dict.EdgeType{0}, false},
		{nil, nil, true},
	}
	for _, tc := range tests {
		if got := ContainsTypes(tc.have, tc.want); got != tc.ok {
			t.Errorf("ContainsTypes(%v, %v) = %v, want %v", tc.have, tc.want, got, tc.ok)
		}
	}
}

// randomGraph builds a small random multigraph for property tests.
func randomGraph(rng *rand.Rand, nV, nT, nEdges int) *Graph {
	var b Builder
	iri := func(i int) rdf.Term { return rdf.NewIRI(string(rune('a'+i%26)) + "/" + itoa(i)) }
	for i := 0; i < nEdges; i++ {
		s := iri(rng.Intn(nV))
		o := iri(rng.Intn(nV))
		p := rdf.NewIRI("p" + itoa(rng.Intn(nT)))
		if s == o {
			continue
		}
		_ = b.Add(rdf.Triple{S: s, P: p, O: o})
	}
	return b.Build()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// TestViewsDoNotAllocate: adjacency views, edge-type lookups and vertex
// synopses read the flat arrays without allocating.
func TestViewsDoNotAllocate(t *testing.T) {
	g := buildFigure1(t)
	amy, london := vid(t, g, "Amy_Winehouse"), vid(t, g, "London")
	allocs := testing.AllocsPerRun(50, func() {
		for v := 0; v < g.NumVertices(); v++ {
			in, out := g.In(dict.VertexID(v)), g.Out(dict.VertexID(v))
			for i := 0; i < in.Len(); i++ {
				_ = in.Types(i)
			}
			_ = out.Len()
			_ = g.VertexSynopsis(dict.VertexID(v))
		}
		_ = g.EdgeTypes(amy, london)
	})
	if allocs != 0 {
		t.Errorf("views allocated %.0f times per pass", allocs)
	}
}
