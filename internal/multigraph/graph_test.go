package multigraph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/otil"
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

	if !g.HasEdgeTypes(amy, london, []dict.EdgeType{min(born, died), max(born, died)}) {
		t.Error("multi-edge {wasBornIn, diedIn} not found")
	}
	_, out := g.Signature(amy)
	if n := len(out); n != 4 {
		t.Fatalf("Amy has %d outgoing multi-edges, want 4", n)
	}
	var m MultiEdges
	m.Regroup(g.Out(amy))
	i, ok := slices.BinarySearch(m.nbrs, london)
	if !ok {
		t.Fatal("Amy's regrouped out side has no multi-edge to London")
	}
	if ts := m.Types(i); !slices.Equal(ts, []dict.EdgeType{min(born, died), max(born, died)}) {
		t.Fatalf("multi-edge Amy→London regroups to %v, want exactly {wasBornIn, diedIn}", ts)
	}
	for et := range dict.EdgeType(g.NumEdgeTypes()) {
		if g.HasEdgeTypes(london, amy, []dict.EdgeType{et}) {
			t.Errorf("reverse edge of type %d should not exist (directed)", et)
		}
		if g.HasEdgeTypes(amy, amy, []dict.EdgeType{et}) {
			t.Errorf("self edge of type %d should not exist", et)
		}
	}
}

// TestInOutConsistency: every labelled edge v→w of type t is in v's out
// run of t and in w's in run of t, and the two sides hold as many labels.
func TestInOutConsistency(t *testing.T) {
	g := buildFigure1(t)
	outs, ins := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		vid := dict.VertexID(v)
		out, in := g.Out(vid), g.In(vid)
		for _, et := range out.Types {
			for _, w := range out.List(et) {
				outs++
				if !slices.Contains(g.In(w).List(et), vid) {
					t.Errorf("edge %d→%d of type %d missing from the in side", v, w, et)
				}
			}
		}
		for _, et := range in.Types {
			ins += len(in.List(et))
		}
	}
	if outs != ins {
		t.Errorf("out side holds %d labels, in side %d", outs, ins)
	}
}

// TestAdjacencySorted: every vertex's runs are by strictly ascending type, and
// each run is a non-empty, strictly ascending neighbour list.
func TestAdjacencySorted(t *testing.T) {
	g := buildFigure1(t)
	for v := 0; v < g.NumVertices(); v++ {
		for _, p := range []otil.Postings{g.Out(dict.VertexID(v)), g.In(dict.VertexID(v))} {
			for i, et := range p.Types {
				if i > 0 && p.Types[i-1] >= et {
					t.Fatalf("runs of %d not by ascending type: %v", v, p.Types)
				}
				if l := p.List(et); len(l) == 0 || !slices.IsSorted(l) || len(slices.Compact(slices.Clone(l))) != len(l) {
					t.Fatalf("run %d of %d not sorted and unique: %v", et, v, l)
				}
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
	if out := g.Out(a); len(out.Types) != 1 || len(out.List(out.Types[0])) != 1 {
		t.Errorf("out runs = %v, want one edge label", out)
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

// TestViewsDoNotAllocate: run views, edge-type checks and vertex
// synopses read the flat arrays without allocating.
func TestViewsDoNotAllocate(t *testing.T) {
	g := buildFigure1(t)
	amy, london := vid(t, g, "Amy_Winehouse"), vid(t, g, "London")
	born := etype(t, g, "wasBornIn")
	allocs := testing.AllocsPerRun(50, func() {
		for v := 0; v < g.NumVertices(); v++ {
			in, out := g.In(dict.VertexID(v)), g.Out(dict.VertexID(v))
			for _, et := range in.Types {
				_ = in.List(et)
			}
			_ = len(out.Types)
			_ = g.VertexSynopsis(dict.VertexID(v))
		}
		_ = g.HasEdgeTypes(amy, london, []dict.EdgeType{born})
	})
	if allocs != 0 {
		t.Errorf("views allocated %.0f times per pass", allocs)
	}
}
