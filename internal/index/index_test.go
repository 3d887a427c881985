package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dict"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rdf"
)

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

func buildAll(t *testing.T) (*multigraph.Graph, *Index) {
	t.Helper()
	triples, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return g, Build(g)
}

func lookupV(t *testing.T, g *multigraph.Graph, local string) dict.VertexID {
	t.Helper()
	v, ok := g.Terms().LookupVertex("http://dbpedia.org/resource/" + local)
	if !ok {
		t.Fatalf("vertex %q missing", local)
	}
	return v
}

func lookupT(t *testing.T, g *multigraph.Graph, pred string) dict.EdgeType {
	t.Helper()
	e, ok := g.Terms().LookupEdgeType("http://dbpedia.org/ontology/" + pred)
	if !ok {
		t.Fatalf("edge type %q missing", pred)
	}
	return e
}

// The attribute index A is the graph's attribute side: GraphReader's
// AttrCandidates intersects its lists.

func TestAttributeIndexSingle(t *testing.T) {
	g, ix := buildAll(t)
	a, ok := g.Terms().LookupAttr("http://dbpedia.org/ontology/hasCapacityOf", rdf.NewLiteral("90000"))
	if !ok {
		t.Fatal("attribute missing")
	}
	want := lookupV(t, g, "WembleyStadium")
	if got := g.AttrVertices(a); !slices.Equal(got, []dict.VertexID{want}) {
		t.Errorf("AttrVertices(hasCapacityOf 90000) = %v, want [%d]", got, want)
	}
	if got := NewReader(g, ix).AttrCandidates([]dict.AttrID{a}); !slices.Equal(got, []dict.VertexID{want}) {
		t.Errorf("AttrCandidates(hasCapacityOf 90000) = %v, want [%d]", got, want)
	}
}

// TestAttributeIndexConjunction reproduces the paper's u5 example: the
// attribute set {a1, a2} (foundedIn 1994, hasName MCA_Band) selects exactly
// Music_Band.
func TestAttributeIndexConjunction(t *testing.T) {
	g, ix := buildAll(t)
	r := NewReader(g, ix)
	a1, ok1 := g.Terms().LookupAttr("http://dbpedia.org/ontology/foundedIn", rdf.NewLiteral("1994"))
	a2, ok2 := g.Terms().LookupAttr("http://dbpedia.org/ontology/hasName", rdf.NewLiteral("MCA_Band"))
	if !ok1 || !ok2 {
		t.Fatal("attributes missing")
	}
	want := lookupV(t, g, "Music_Band")
	if got := r.AttrCandidates([]dict.AttrID{a1, a2}); !slices.Equal(got, []dict.VertexID{want}) {
		t.Errorf("AttrCandidates({a1,a2}) = %v, want [%d]", got, want)
	}
	// Conjunction with a foreign attribute must be empty.
	a0, _ := g.Terms().LookupAttr("http://dbpedia.org/ontology/hasCapacityOf", rdf.NewLiteral("90000"))
	if got := r.AttrCandidates([]dict.AttrID{a1, a0}); got != nil {
		t.Errorf("impossible conjunction = %v", got)
	}
}

func TestAttributeIndexEdgeCases(t *testing.T) {
	g, ix := buildAll(t)
	r := NewReader(g, ix)
	if got := r.AttrCandidates(nil); got != nil {
		t.Errorf("empty attr query = %v", got)
	}
	if got := g.AttrVertices(dict.AttrID(999)); got != nil {
		t.Errorf("out-of-range attr = %v", got)
	}
	if got := r.AttrCandidates([]dict.AttrID{999}); got != nil {
		t.Errorf("out-of-range attr query = %v", got)
	}
	postings := 0
	for a := range g.NumAttrs() {
		postings += len(g.AttrVertices(dict.AttrID(a)))
	}
	if postings != 3 {
		t.Errorf("A holds %d postings, want 3", postings)
	}
}

// TestBuildAllocsFlat: Build allocates nothing per attribute or per
// vertex. On two seeded graphs, the larger with ten times the vertices and
// attributes, its allocations differ by no more than the larger R-tree's
// extra levels cost: a level's boxes, its entries, its sort and the
// growth of the level list.
func TestBuildAllocsFlat(t *testing.T) {
	measure := func(n int) (allocs float64, attrs, levels int) {
		rng := rand.New(rand.NewSource(int64(n)))
		var ts []rdf.Triple
		for i := range n {
			s := rdf.NewIRI(fmt.Sprintf("http://g/v%d", i))
			ts = append(ts,
				rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://g/p%d", rng.Intn(4))), O: rdf.NewIRI(fmt.Sprintf("http://g/v%d", rng.Intn(n)))},
				rdf.Triple{S: s, P: rdf.NewIRI("http://g/name"), O: rdf.NewLiteral(fmt.Sprintf("v%d", i))},
				rdf.Triple{S: s, P: rdf.NewIRI("http://g/group"), O: rdf.NewLiteral(fmt.Sprintf("g%d", rng.Intn(n/10)))})
		}
		g, err := multigraph.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		levels = 1
		for k := g.NumVertices(); k > 16; k = (k + 15) / 16 {
			levels++
		}
		return testing.AllocsPerRun(5, func() { Build(g) }), g.NumAttrs(), levels
	}
	small, smallA, smallL := measure(400)
	large, largeA, largeL := measure(4000)
	t.Logf("Build allocations: %.0f for %d attributes, %.0f for %d", small, smallA, large, largeA)
	if bound := float64(4 * (largeL - smallL)); large-small > bound {
		t.Errorf("Build made %.0f allocations for %d attributes and %.0f for %d: more than the %.0f of %d extra R-tree levels",
			large, largeA, small, smallA, bound, largeL-smallL)
	}
}

// TestSignatureIndexU0 replays the Section 4.2 example on the real graph:
// a query vertex with a single outgoing wasBornIn edge must retrieve
// exactly the vertices having an outgoing wasBornIn edge (Nolan, Amy) —
// and possibly no others on this tiny graph.
func TestSignatureIndexU0(t *testing.T) {
	g, ix := buildAll(t)
	born := lookupT(t, g, "wasBornIn")
	q := multigraph.SynopsisFromMultiEdges(nil, [][]dict.EdgeType{{born}}).AsQuery()
	got := ix.S.Candidates(q)

	mustHave := map[dict.VertexID]bool{
		lookupV(t, g, "Christopher_Nolan"): false,
		lookupV(t, g, "Amy_Winehouse"):     false,
	}
	for _, v := range got {
		if _, ok := mustHave[v]; ok {
			mustHave[v] = true
		}
		// Lemma 1 gives a superset; but every returned vertex must at least
		// dominate the query synopsis.
		if !g.VertexSynopsis(v).Dominates(q) {
			t.Errorf("returned vertex %d does not dominate query", v)
		}
	}
	for v, seen := range mustHave {
		if !seen {
			t.Errorf("true candidate %d pruned by S index", v)
		}
	}
}

func TestSignatureIndexCompleteness(t *testing.T) {
	g, ix := buildAll(t)
	if ix.S.Len() != g.NumVertices() {
		t.Errorf("S indexes %d vertices, want %d", ix.S.Len(), g.NumVertices())
	}
	// An empty query synopsis must return every vertex.
	var empty multigraph.Synopsis
	got := ix.S.Candidates(empty.AsQuery())
	if len(got) != g.NumVertices() {
		t.Errorf("empty-query candidates = %d, want all %d", len(got), g.NumVertices())
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("S candidates not sorted")
		}
	}
}

// TestNeighborhoodIndexFigure3 replays the worked example of Section 4.3:
// probing N+ of London with edge type wasBornIn yields {Nolan, Amy}.
func TestNeighborhoodIndexFigure3(t *testing.T) {
	g, ix := buildAll(t)
	r := NewReader(g, ix)
	london := lookupV(t, g, "London")
	born := lookupT(t, g, "wasBornIn")
	died := lookupT(t, g, "diedIn")

	got := r.Neighbors(london, Incoming, []dict.EdgeType{born})
	wantSet := map[dict.VertexID]bool{
		lookupV(t, g, "Christopher_Nolan"): true,
		lookupV(t, g, "Amy_Winehouse"):     true,
	}
	if len(got) != 2 || !wantSet[got[0]] || !wantSet[got[1]] {
		t.Errorf("N+(London, wasBornIn) = %v, want Nolan and Amy", got)
	}

	// Multi-edge {wasBornIn, diedIn}: only Amy.
	me := []dict.EdgeType{born, died}
	if born > died {
		me = []dict.EdgeType{died, born}
	}
	got = r.Neighbors(london, Incoming, me)
	if len(got) != 1 || got[0] != lookupV(t, g, "Amy_Winehouse") {
		t.Errorf("N+(London, {born,died}) = %v, want [Amy]", got)
	}
}

func TestNeighborhoodIndexOutgoing(t *testing.T) {
	g, ix := buildAll(t)
	r := NewReader(g, ix)
	amy := lookupV(t, g, "Amy_Winehouse")
	lived := lookupT(t, g, "livedIn")
	got := r.Neighbors(amy, Outgoing, []dict.EdgeType{lived})
	if len(got) != 1 || got[0] != lookupV(t, g, "United_States") {
		t.Errorf("N-(Amy, livedIn) = %v, want [United_States]", got)
	}
	// Direction matters: incoming probe must be empty.
	if got := r.Neighbors(amy, Incoming, []dict.EdgeType{lived}); got != nil {
		t.Errorf("N+(Amy, livedIn) = %v, want nil", got)
	}
}

func TestNeighborhoodIndexBounds(t *testing.T) {
	g, ix := buildAll(t)
	if got := NewReader(g, ix).Neighbors(dict.VertexID(9999), Incoming, []dict.EdgeType{0}); got != nil {
		t.Errorf("out-of-range vertex = %v", got)
	}
}

func TestDirectionString(t *testing.T) {
	if Incoming.String() != "+" || Outgoing.String() != "-" {
		t.Errorf("Direction strings: %s %s", Incoming, Outgoing)
	}
}

// TestNeighborsAgainstAdjacency cross-checks every N probe against the
// graph's neighbour-major adjacency (its runs regrouped into multi-edges)
// on a random graph: each neighbour is found under each of its types and
// under its full multi-edge.
func TestNeighborsAgainstAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b multigraph.Builder
	for i := 0; i < 300; i++ {
		s := rdf.NewIRI("v" + string(rune('A'+rng.Intn(20))))
		o := rdf.NewIRI("v" + string(rune('A'+rng.Intn(20))))
		if s == o {
			continue
		}
		p := rdf.NewIRI("p" + string(rune('a'+rng.Intn(6))))
		if err := b.Add(rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	r := NewReader(g, Build(g))
	var m multigraph.MultiEdges
	for v := 0; v < g.NumVertices(); v++ {
		vid := dict.VertexID(v)
		for _, side := range []struct {
			dir Direction
			p   otil.Postings
		}{{Incoming, g.In(vid)}, {Outgoing, g.Out(vid)}} {
			m.Regroup(side.p)
			for i := 0; i < m.Len(); i++ {
				for _, et := range m.Types(i) {
					if got := r.Neighbors(vid, side.dir, []dict.EdgeType{et}); !slices.Contains(got, m.V(i)) {
						t.Fatalf("N%s(%d, t%d) = %v missing %d", side.dir, v, et, got, m.V(i))
					}
				}
				if got := r.Neighbors(vid, side.dir, m.Types(i)); !slices.Contains(got, m.V(i)) {
					t.Fatalf("N%s(%d, full multi-edge) missing %d", side.dir, v, m.V(i))
				}
			}
		}
	}
}

// TestCardinalities cross-checks the planner statistics against a direct
// adjacency scan on a small graph with multi-edges and skewed type usage.
func TestCardinalities(t *testing.T) {
	triples, err := rdf.ParseString(`
<http://x/a> <http://y/p> <http://x/b> .
<http://x/a> <http://y/q> <http://x/b> .
<http://x/a> <http://y/p> <http://x/c> .
<http://x/b> <http://y/p> <http://x/c> .
<http://x/c> <http://y/r> <http://x/a> .
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	ix := Build(g)
	if ix.Card == nil {
		t.Fatal("Build left Card nil")
	}
	c := ix.Card
	if c.NumVertices != g.NumVertices() {
		t.Errorf("NumVertices = %d, want %d", c.NumVertices, g.NumVertices())
	}
	p, okP := g.Terms().LookupEdgeType("http://y/p")
	q, okQ := g.Terms().LookupEdgeType("http://y/q")
	r, okR := g.Terms().LookupEdgeType("http://y/r")
	if !okP || !okQ || !okR {
		t.Fatal("edge types missing")
	}
	// p: edges a→b, a→c, b→c (3 pairs); sources {a,b}; targets {b,c}.
	if got := c.Edges[p]; got != 3 {
		t.Errorf("Edges[p] = %d, want 3", got)
	}
	if got := c.VerticesWith(Outgoing, p); got != 2 {
		t.Errorf("OutVertices[p] = %d, want 2", got)
	}
	if got := c.VerticesWith(Incoming, p); got != 2 {
		t.Errorf("InVertices[p] = %d, want 2", got)
	}
	// q: single edge a→b.
	if c.Edges[q] != 1 || c.VerticesWith(Outgoing, q) != 1 || c.VerticesWith(Incoming, q) != 1 {
		t.Errorf("q cardinalities = %d/%d/%d, want 1/1/1",
			c.Edges[q], c.VerticesWith(Outgoing, q), c.VerticesWith(Incoming, q))
	}
	// Fanout of p at a bound source: 3 edges over 2 sources.
	if got := c.Fanout(Outgoing, p); got != 1.5 {
		t.Errorf("Fanout(out, p) = %v, want 1.5", got)
	}
	// Unknown type is safe.
	if c.VerticesWith(Outgoing, r+100) != 0 || c.Fanout(Incoming, r+100) != 0 {
		t.Error("out-of-range type not zero")
	}
}

// randomGraph builds the graph of randomTriples.
func randomGraph(t *testing.T, rng *rand.Rand, nV, nP, nE, hubTypes int) *multigraph.Graph {
	t.Helper()
	g, err := multigraph.FromTriples(randomTriples(rng, nV, nP, nE, hubTypes))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomTriples joins nV vertices by nE random typed edges, self-loops
// among them; vertex "hub" additionally reaches one neighbour per edge
// type over hubTypes distinct types and shares several types with each of
// a few neighbours.
func randomTriples(rng *rand.Rand, nV, nP, nE, hubTypes int) []rdf.Triple {
	var ts []rdf.Triple
	add := func(s, p, o string) {
		ts = append(ts, rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)})
	}
	vert := func(i int) string { return fmt.Sprintf("http://g/v%d", i) }
	for i := 0; i < nE; i++ {
		add(vert(rng.Intn(nV)), fmt.Sprintf("http://g/p%d", rng.Intn(nP)), vert(rng.Intn(nV)))
	}
	for i := 0; i < hubTypes; i++ {
		add("http://g/hub", fmt.Sprintf("http://g/h%d", i), vert(rng.Intn(nV)))
		add(vert(rng.Intn(nV)), fmt.Sprintf("http://g/h%d", i), "http://g/hub")
		add("http://g/hub", fmt.Sprintf("http://g/h%d", i), vert(i%5))
	}
	return ts
}

// TestSignatureCandidatesAgainstScan: on random graphs the S probe equals
// the brute-force dominance scan and is strictly ascending — for vertex
// synopses, for the all-dominated empty query and for a query nothing
// dominates — including the empty tree, from concurrent probes.
func TestSignatureCandidatesAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	graphs := []*multigraph.Graph{
		(&multigraph.Builder{}).Build(),
		randomGraph(t, rng, 40, 5, 120, 0),
		randomGraph(t, rng, 700, 12, 4000, 20),
	}
	for _, g := range graphs {
		si := BuildSignatureIndex(g)
		var none multigraph.Synopsis
		for i := range none {
			none[i] = 1 << 30
		}
		queries := []multigraph.Synopsis{multigraph.Synopsis{}.AsQuery(), none}
		for v := 0; v < g.NumVertices(); v += 7 {
			queries = append(queries, g.VertexSynopsis(dict.VertexID(v)).AsQuery())
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range queries {
					var want []dict.VertexID
					for v := 0; v < g.NumVertices(); v++ {
						if g.VertexSynopsis(dict.VertexID(v)).Dominates(q) {
							want = append(want, dict.VertexID(v))
						}
					}
					if got := si.Candidates(q); !slices.Equal(got, want) {
						t.Errorf("|V|=%d query %v: S returned %d ids, scan %d (or out of order)", g.NumVertices(), q, len(got), len(want))
					}
				}
			}()
		}
		wg.Wait()
		if n := len(si.Candidates(queries[0])); n != g.NumVertices() {
			t.Errorf("empty query dominated by %d of %d vertices", n, g.NumVertices())
		}
		if got := si.Candidates(none); len(got) != 0 {
			t.Errorf("undominated query returned %v", got)
		}
	}
}

// TestSignatureCandidatesOnCorpora: on a seeded LUBM graph and a seeded
// DBpedia-like graph, the S probe equals the dominance scan over every
// vertex synopsis, for the synopses of sampled vertices and for relaxed
// forms of them: one direction dropped, and multi-edge cardinality and
// type count halved.
func TestSignatureCandidatesOnCorpora(t *testing.T) {
	corpora := map[string][]rdf.Triple{
		"LUBM":         datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 17}),
		"DBpedia-like": datagen.DBpediaLike(1, 23),
	}
	for name, triples := range corpora {
		g, err := multigraph.FromTriples(triples)
		if err != nil {
			t.Fatal(err)
		}
		si := BuildSignatureIndex(g)
		syn := make([]multigraph.Synopsis, g.NumVertices())
		for v := range syn {
			syn[v] = g.VertexSynopsis(dict.VertexID(v))
		}
		probes := 0
		for v := 0; v < len(syn); v += 1 + len(syn)/300 {
			in, out, half := syn[v], syn[v], syn[v]
			clear(in[4:])
			clear(out[:4])
			for _, f := range []int{0, 1, 4, 5} {
				half[f] /= 2
			}
			for _, q := range []multigraph.Synopsis{syn[v], in, out, half} {
				q = q.AsQuery()
				var want []dict.VertexID
				for u, s := range syn {
					if s.Dominates(q) {
						want = append(want, dict.VertexID(u))
					}
				}
				if got := si.Candidates(q); !slices.Equal(got, want) {
					t.Fatalf("%s query %v: S returned %d ids, scan %d (or out of order)", name, q, len(got), len(want))
				}
				probes++
			}
		}
		t.Logf("%s: %d vertices, %d probes", name, len(syn), probes)
	}
}

// TestNeighborsAgainstTrie checks the graph's runs, which serve N,
// against references built from the source triples alone, on a seeded
// LUBM graph, a seeded DBpedia-like graph and a random graph with a hub of
// more than 256 edge types, self-loops and vertices that are only ever
// objects:
//
//   - the N probe equals the OTIL trie walk for every vertex and
//     direction, for each stored multi-edge, each of its single types, its
//     first and last types together and mostly-absent type pairs;
//   - HasEdgeTypes equals a map of the triples for every stored pair and
//     for random pairs;
//   - a decoded snapshot of the graph has identical runs.
func TestNeighborsAgainstTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := randomTriples(rng, 60, 6, 900, 300)
	for i := range 20 { // in-only vertices
		random = append(random, rdf.Triple{S: random[i].S, P: random[i].P, O: rdf.NewIRI(fmt.Sprintf("http://g/sink%d", i%7))})
	}
	corpora := []struct {
		name    string
		triples []rdf.Triple
	}{
		{"random", random},
		{"LUBM", datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 17})},
		{"DBpedia-like", datagen.DBpediaLike(1, 23)},
	}
	for _, c := range corpora {
		g, err := multigraph.FromTriples(c.triples)
		if err != nil {
			t.Fatal(err)
		}
		checkRunsAgainstTriples(t, c.name, g, c.triples, rng)
	}
	g, _ := multigraph.FromTriples(random)
	hub, _ := g.Terms().LookupVertex("http://g/hub")
	loops := 0
	for _, tr := range random {
		if tr.S == tr.O {
			loops++
		}
	}
	if n := len(g.Out(hub).Types); n < 256 || loops == 0 {
		t.Fatalf("random graph's hub has %d edge types and the triples %d self-loops, want ≥ 256 and some", n, loops)
	}
}

// checkRunsAgainstTriples runs TestNeighborsAgainstTrie's checks on g, the
// graph of triples.
func checkRunsAgainstTriples(t *testing.T, name string, g *multigraph.Graph, triples []rdf.Triple, rng *rand.Rand) {
	t.Helper()
	type pair struct{ s, o dict.VertexID }
	ref := map[pair][]dict.EdgeType{}
	for _, tr := range triples {
		if tr.O.IsLiteral() {
			continue
		}
		s, _ := g.Terms().LookupVertex(tr.S.Value)
		o, _ := g.Terms().LookupVertex(tr.O.Value)
		et, _ := g.Terms().LookupEdgeType(tr.P.Value)
		ref[pair{s, o}] = append(ref[pair{s, o}], et)
	}
	n, nT := g.NumVertices(), g.NumEdgeTypes()
	tries := make([][2]otil.Trie, n) // by Direction: in, out
	queries := make([][2][][]dict.EdgeType, n)
	for k, ts := range ref {
		slices.Sort(ts)
		ts = slices.Compact(ts)
		ref[k] = ts
		tries[k.o][Incoming].Insert(ts, k.s)
		tries[k.s][Outgoing].Insert(ts, k.o)
		for _, end := range []struct {
			v   dict.VertexID
			dir Direction
		}{{k.o, Incoming}, {k.s, Outgoing}} {
			q := &queries[end.v][end.dir]
			*q = append(*q, ts)
			for i := range ts {
				*q = append(*q, ts[i:i+1])
			}
			if len(ts) > 2 { // a strict subset that skips the middle types
				*q = append(*q, []dict.EdgeType{ts[0], ts[len(ts)-1]})
			}
		}
	}
	if g.NumEdges() != len(ref) {
		t.Fatalf("%s: NumEdges = %d, the triples hold %d pairs", name, g.NumEdges(), len(ref))
	}
	r := NewReader(g, nil)
	for v := 0; v < n; v++ {
		for dir := Incoming; dir <= Outgoing; dir++ {
			qs := queries[v][dir]
			for range 8 { // mostly-absent combinations
				a, b := dict.EdgeType(rng.Intn(nT)), dict.EdgeType(rng.Intn(nT))
				if a != b {
					qs = append(qs, []dict.EdgeType{min(a, b), max(a, b)})
				}
			}
			for _, q := range qs {
				if got, want := r.Neighbors(dict.VertexID(v), dir, q), tries[v][dir].LookupTrie(q); !slices.Equal(got, want) {
					t.Fatalf("%s: N%s(%d, %v) = %v, trie walk says %v", name, dir, v, q, got, want)
				}
			}
		}
	}
	has := func(k pair, want []dict.EdgeType) {
		if got := g.HasEdgeTypes(k.s, k.o, want); got != multigraph.ContainsTypes(ref[k], want) {
			t.Fatalf("%s: HasEdgeTypes(%d, %d, %v) = %v, triples hold %v", name, k.s, k.o, want, got, ref[k])
		}
	}
	for k, ts := range ref {
		has(k, ts)
		has(k, ts[len(ts)-1:])
		has(pair{k.o, k.s}, ts[:1])
	}
	for range 2000 {
		has(pair{dict.VertexID(rng.Intn(n)), dict.VertexID(rng.Intn(n))}, []dict.EdgeType{dict.EdgeType(rng.Intn(nT))})
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := multigraph.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumEdges() != g.NumEdges() || dec.Bytes() != g.Bytes() {
		t.Fatalf("%s: decoded graph has %d pairs in %d bytes, built %d in %d", name, dec.NumEdges(), dec.Bytes(), g.NumEdges(), g.Bytes())
	}
	for v := 0; v < n; v++ {
		vid := dict.VertexID(v)
		for _, ps := range [][2]otil.Postings{{g.In(vid), dec.In(vid)}, {g.Out(vid), dec.Out(vid)}} {
			a, b := ps[0], ps[1]
			if !slices.Equal(a.Types, b.Types) || !slices.Equal(a.Off, b.Off) ||
				!slices.Equal(a.IDs[a.Off[0]:a.Off[len(a.Types)]], b.IDs[b.Off[0]:b.Off[len(b.Types)]]) {
				t.Fatalf("%s: runs of %d differ after Decode(Encode(·))", name, v)
			}
		}
	}
}

// TestNeighborsSingleTypeAllocs: a single-type probe of the base index
// returns the stored list, allocating nothing.
func TestNeighborsSingleTypeAllocs(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(4)), 60, 6, 900, 0)
	r := NewReader(g, Build(g))
	var v dict.VertexID
	for len(g.Out(v).Types) == 0 {
		v++
	}
	q := g.Out(v).Types[:1]
	var got []dict.VertexID
	if allocs := testing.AllocsPerRun(100, func() { got = r.Neighbors(v, Outgoing, q) }); allocs != 0 {
		t.Errorf("single-type Neighbors probe allocates %.0f times per call", allocs)
	}
	if len(got) == 0 {
		t.Error("probe of a stored edge type returned nothing")
	}
}
