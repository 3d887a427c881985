package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/rdf"
)

func buildBase(t testing.TB, src string) (*multigraph.Graph, *index.Index) {
	t.Helper()
	triples, err := rdf.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return g, index.Build(g)
}

const baseData = `
<http://x/a> <http://p/knows> <http://x/b> .
<http://x/b> <http://p/knows> <http://x/c> .
<http://x/a> <http://p/likes> <http://x/c> .
<http://x/a> <http://p/name> "ada" .
<http://x/b> <http://p/name> "bob" .
`

func iri(s string) rdf.Term { return rdf.NewIRI(s) }
func tr(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}
func trLit(s, p, lit string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: rdf.NewLiteral(lit)}
}

func TestViewAddAndDeleteEdges(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v := NewView(g, ix)
	if !v.Empty() || v.NumTriples() != 5 {
		t.Fatalf("empty view: empty=%v triples=%d", v.Empty(), v.NumTriples())
	}

	a, _ := v.LookupVertex("http://x/a")
	b, _ := v.LookupVertex("http://x/b")
	c, _ := v.LookupVertex("http://x/c")
	knows, _ := v.LookupEdgeType("http://p/knows")

	// Add a new edge a→c with the existing type, delete a→b.
	v2, err := v.Apply(
		[]rdf.Triple{tr("http://x/a", "http://p/knows", "http://x/c")},
		[]rdf.Triple{tr("http://x/a", "http://p/knows", "http://x/b")})
	if err != nil {
		t.Fatal(err)
	}
	// Old view unchanged (snapshot isolation).
	if !v.HasEdgeTypes(a, b, []dict.EdgeType{knows}) {
		t.Error("old view lost a→b")
	}
	if v.HasEdgeTypes(a, c, []dict.EdgeType{knows}) {
		t.Error("old view gained a→c knows")
	}
	// New view reflects the batch.
	if v2.HasEdgeTypes(a, b, []dict.EdgeType{knows}) {
		t.Error("new view kept deleted a→b")
	}
	if !v2.HasEdgeTypes(a, c, []dict.EdgeType{knows}) {
		t.Error("new view missing a→c")
	}
	if v2.NumTriples() != 5 {
		t.Errorf("triples = %d, want 5", v2.NumTriples())
	}
	if v2.Adds() != 1 || v2.Tombstones() != 1 {
		t.Errorf("adds/dels = %d/%d, want 1/1", v2.Adds(), v2.Tombstones())
	}

	// Neighbor probes reflect the overlay on both sides.
	nb := v2.Neighbors(a, index.Outgoing, []dict.EdgeType{knows})
	if !reflect.DeepEqual(nb, []dict.VertexID{c}) {
		t.Errorf("a knows-out = %v, want [%v]", nb, c)
	}
	nb = v2.Neighbors(b, index.Incoming, []dict.EdgeType{knows})
	if len(nb) != 0 {
		t.Errorf("b knows-in = %v, want empty", nb)
	}
	nb = v2.Neighbors(c, index.Incoming, []dict.EdgeType{knows})
	if !reflect.DeepEqual(nb, []dict.VertexID{a, b}) {
		t.Errorf("c knows-in = %v, want [a b]", nb)
	}
	// No types name no neighbours, as in the base, touched vertex or not.
	for _, x := range []dict.VertexID{a, b, c} {
		for _, dir := range []index.Direction{index.Outgoing, index.Incoming} {
			if nb := v2.Neighbors(x, dir, nil); nb != nil {
				t.Errorf("Neighbors(%v, %v, no types) = %v, want nil", x, dir, nb)
			}
		}
	}
}

func TestViewReAddCancelsTombstone(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v := NewView(g, ix)
	del := tr("http://x/a", "http://p/knows", "http://x/b")
	v2, err := v.Apply(nil, []rdf.Triple{del})
	if err != nil {
		t.Fatal(err)
	}
	v3, err := v2.Apply([]rdf.Triple{del}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Empty() {
		t.Errorf("delete+re-add should cancel: size=%d", v3.Size())
	}
	a, _ := v3.LookupVertex("http://x/a")
	b, _ := v3.LookupVertex("http://x/b")
	knows, _ := v3.LookupEdgeType("http://p/knows")
	if !v3.HasEdgeTypes(a, b, []dict.EdgeType{knows}) {
		t.Error("edge missing after re-add")
	}
}

func TestViewNewVerticesAndAttrs(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v, err := NewView(g, ix).Apply([]rdf.Triple{
		tr("http://x/new1", "http://p/knows", "http://x/new2"),
		trLit("http://x/new1", "http://p/name", "nova"),
		trLit("http://x/a", "http://p/age", "41"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != g.NumVertices()+2 {
		t.Errorf("vertices = %d, want %d", v.NumVertices(), g.NumVertices()+2)
	}
	n1, ok := v.LookupVertex("http://x/new1")
	if !ok {
		t.Fatal("new vertex not resolvable")
	}
	if v.VertexIRI(n1) != "http://x/new1" {
		t.Errorf("VertexIRI round trip = %q", v.VertexIRI(n1))
	}
	// New attribute reachable through the overlay A index.
	aid, ok := v.LookupAttr("http://p/name", rdf.NewLiteral("nova"))
	if !ok {
		t.Fatal("new attr not resolvable")
	}
	if got := v.AttrCandidates([]dict.AttrID{aid}); !reflect.DeepEqual(got, []dict.VertexID{n1}) {
		t.Errorf("AttrCandidates(nova) = %v, want [%v]", got, n1)
	}
	// Existing attr tuple on a new subject vertex.
	aAda, _ := v.LookupAttr("http://p/name", rdf.NewLiteral("ada"))
	a, _ := v.LookupVertex("http://x/a")
	if got := v.AttrCandidates([]dict.AttrID{aAda}); !reflect.DeepEqual(got, []dict.VertexID{a}) {
		t.Errorf("AttrCandidates(ada) = %v", got)
	}
	if !v.HasAttrs(n1, []dict.AttrID{aid}) {
		t.Error("HasAttrs(new1, nova) = false")
	}
	// Deleting the attr tombstones it out of the inverted list.
	v2, err := v.Apply(nil, []rdf.Triple{trLit("http://x/a", "http://p/name", "ada")})
	if err != nil {
		t.Fatal(err)
	}
	if got := v2.AttrCandidates([]dict.AttrID{aAda}); len(got) != 0 {
		t.Errorf("AttrCandidates(ada) after delete = %v, want empty", got)
	}
	if v2.HasAttrs(a, []dict.AttrID{aAda}) {
		t.Error("HasAttrs(a, ada) survived delete")
	}
}

// TestPublishedViewKeepsItsBounds: the overlay interns new terms into
// the base graph's dictionaries, yet a View published before the batch
// that introduced them still reports them absent, and neither its counts
// nor the graph's move.
func TestPublishedViewKeepsItsBounds(t *testing.T) {
	g, ix := buildBase(t, baseData)
	nv, nt, na := g.NumVertices(), g.NumEdgeTypes(), g.NumAttrs()
	v0 := NewView(g, ix)
	v1, err := v0.Apply([]rdf.Triple{tr("http://x/c", "http://p/knows", "http://x/a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := v1.Apply([]rdf.Triple{
		tr("http://x/new1", "http://p/newp", "http://x/new2"),
		trLit("http://x/a", "http://p/newattr", "fresh"),
		trLit("http://x/c", "http://p/name", "cy"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []*View{v0, v1} {
		if v.NumVertices() != nv || v.NumEdgeTypes() != nt || v.NumAttrs() != na {
			t.Errorf("view %d: counts %d/%d/%d, want %d/%d/%d", i, v.NumVertices(), v.NumEdgeTypes(), v.NumAttrs(), nv, nt, na)
		}
		_, okV1 := v.LookupVertex("http://x/new1")
		_, okV2 := v.LookupVertex("http://x/new2")
		_, okE := v.LookupEdgeType("http://p/newp")
		_, okA1 := v.LookupAttr("http://p/newattr", rdf.NewLiteral("fresh"))
		_, okA2 := v.LookupAttr("http://p/name", rdf.NewLiteral("cy"))
		if okV1 || okV2 || okE || okA1 || okA2 {
			t.Errorf("view %d resolves a term a later batch introduced: %v %v %v %v %v", i, okV1, okV2, okE, okA1, okA2)
		}
		if got := v.PredicateAttrs("http://p/name"); len(got) != 2 {
			t.Errorf("view %d: PredicateAttrs(name) = %v, want the base's two", i, got)
		}
		if got := v.PredicateAttrs("http://p/newattr"); got != nil {
			t.Errorf("view %d: PredicateAttrs(newattr) = %v, want nil", i, got)
		}
	}
	if v2.NumVertices() != nv+2 || v2.NumEdgeTypes() != nt+1 || v2.NumAttrs() != na+2 {
		t.Errorf("new view: counts %d/%d/%d, want %d/%d/%d", v2.NumVertices(), v2.NumEdgeTypes(), v2.NumAttrs(), nv+2, nt+1, na+2)
	}
	cy, ok := v2.LookupAttr("http://p/name", rdf.NewLiteral("cy"))
	if got := v2.PredicateAttrs("http://p/name"); !ok || len(got) != 3 || got[2] != cy {
		t.Errorf("new view: PredicateAttrs(name) = %v, want the base's two then %d", got, cy)
	}
	if g.NumVertices() != nv || g.NumEdgeTypes() != nt || g.NumAttrs() != na {
		t.Errorf("graph counts moved to %d/%d/%d", g.NumVertices(), g.NumEdgeTypes(), g.NumAttrs())
	}
}

func TestViewSignatureCandidatesIncludeTouched(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v, err := NewView(g, ix).Apply([]rdf.Triple{
		tr("http://x/new1", "http://p/knows", "http://x/c"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := v.LookupVertex("http://x/new1")
	knows, _ := v.LookupEdgeType("http://p/knows")
	syn := multigraph.SynopsisFromMultiEdges(nil, [][]dict.EdgeType{{knows}}).AsQuery()
	cands := v.SignatureCandidates(syn)
	found := false
	for _, c := range cands {
		if c == n1 {
			found = true
		}
	}
	if !found {
		t.Errorf("signature candidates %v missing overlay vertex %v", cands, n1)
	}
}

func TestViewNoOpMutations(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v := NewView(g, ix)
	v2, err := v.Apply(
		[]rdf.Triple{tr("http://x/a", "http://p/knows", "http://x/b")}, // already present
		[]rdf.Triple{tr("http://x/a", "http://p/zzz", "http://x/b")})   // absent predicate
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Empty() || v2.NumTriples() != v.NumTriples() {
		t.Errorf("no-op batch changed view: size=%d triples=%d", v2.Size(), v2.NumTriples())
	}
	if _, err := v.Apply([]rdf.Triple{{S: rdf.NewLiteral("x"), P: iri("http://p"), O: iri("http://o")}}, nil); err == nil {
		t.Error("literal subject accepted")
	}
}

// TestViewMatchesRebuild is the semantic property test: after a random
// add/delete sequence, every probe of the overlay view must agree with a
// graph rebuilt from scratch over the merged triple set. Rebuild, on the
// newest View and on one the later batches have overtaken, must build
// what a Builder fed the View's Triples builds.
func TestViewMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uri := func(kind string, n int) string { return fmt.Sprintf("http://%s/%d", kind, n) }
	for trial := 0; trial < 30; trial++ {
		// Random base, deduplicated (Graph.NumTriples counts source
		// statements, so duplicates would skew the merged-count check).
		var baseTriples []rdf.Triple
		seen := make(map[string]bool)
		for i := 0; i < 30; i++ {
			var bt rdf.Triple
			if rng.Intn(4) == 0 {
				bt = trLit(uri("v", rng.Intn(8)), uri("p", rng.Intn(3)), fmt.Sprint(rng.Intn(4)))
			} else {
				bt = tr(uri("v", rng.Intn(8)), uri("p", rng.Intn(3)), uri("v", rng.Intn(8)))
			}
			if !seen[bt.String()] {
				seen[bt.String()] = true
				baseTriples = append(baseTriples, bt)
			}
		}
		g, err := multigraph.FromTriples(baseTriples)
		if err != nil {
			t.Fatal(err)
		}
		v := NewView(g, index.Build(g))

		// Random mutation batches over a slightly larger universe (so new
		// vertices/predicates/attrs appear).
		merged := make(map[string]rdf.Triple)
		for _, bt := range baseTriples {
			merged[bt.String()] = bt
		}
		var overtaken *View
		for b := 0; b < 5; b++ {
			if b == 2 {
				overtaken = v
			}
			var adds, dels []rdf.Triple
			for i := 0; i < 10; i++ {
				var tr3 rdf.Triple
				if rng.Intn(4) == 0 {
					tr3 = trLit(uri("v", rng.Intn(10)), uri("p", rng.Intn(4)), fmt.Sprint(rng.Intn(5)))
				} else {
					tr3 = tr(uri("v", rng.Intn(10)), uri("p", rng.Intn(4)), uri("v", rng.Intn(10)))
				}
				if rng.Intn(2) == 0 {
					adds = append(adds, tr3)
				} else {
					dels = append(dels, tr3)
				}
			}
			if v, err = v.Apply(adds, dels); err != nil {
				t.Fatal(err)
			}
			for _, d := range dels {
				delete(merged, d.String())
			}
			for _, a := range adds {
				merged[a.String()] = a
			}
		}

		// The enumerated triple stream must equal the merged set.
		got := make(map[string]bool)
		v.Triples(func(tr3 rdf.Triple) bool {
			if got[tr3.String()] {
				t.Fatalf("trial %d: duplicate triple %v", trial, tr3)
			}
			got[tr3.String()] = true
			return true
		})
		if len(got) != len(merged) {
			t.Fatalf("trial %d: enumerated %d triples, want %d", trial, len(got), len(merged))
		}
		for k := range merged {
			if !got[k] {
				t.Fatalf("trial %d: missing triple %s", trial, k)
			}
		}
		if v.NumTriples() != len(merged) {
			t.Fatalf("trial %d: NumTriples = %d, want %d", trial, v.NumTriples(), len(merged))
		}
		checkRebuild(t, v)
		checkRebuild(t, overtaken)

		// Rebuild from scratch and compare probes vertex by vertex.
		var rb []rdf.Triple
		for _, tr3 := range merged {
			rb = append(rb, tr3)
		}
		g2, err := multigraph.FromTriples(rb)
		if err != nil {
			t.Fatal(err)
		}
		ix2 := index.Build(g2)
		rd2 := index.NewReader(g2, ix2)
		for vi := 0; vi < g2.NumVertices(); vi++ {
			iriS := g2.Terms().VertexIRI(dict.VertexID(vi))
			ov, ok := v.LookupVertex(iriS)
			if !ok {
				t.Fatalf("trial %d: overlay missing vertex %s", trial, iriS)
			}
			for ti := 0; ti < g2.NumEdgeTypes(); ti++ {
				pIRI := g2.Terms().EdgeTypeIRI(dict.EdgeType(ti))
				ot, ok := v.LookupEdgeType(pIRI)
				if !ok {
					t.Fatalf("trial %d: overlay missing predicate %s", trial, pIRI)
				}
				for _, dir := range []index.Direction{index.Incoming, index.Outgoing} {
					// Identifier assignment differs between overlay and rebuild,
					// so compare the probe results as sorted IRI sets.
					var wantIRIs, gotIRIs []string
					for _, w := range rd2.Neighbors(dict.VertexID(vi), dir, []dict.EdgeType{dict.EdgeType(ti)}) {
						wantIRIs = append(wantIRIs, g2.Terms().VertexIRI(w))
					}
					for _, w := range v.Neighbors(ov, dir, []dict.EdgeType{ot}) {
						gotIRIs = append(gotIRIs, v.VertexIRI(w))
					}
					sort.Strings(wantIRIs)
					sort.Strings(gotIRIs)
					if !reflect.DeepEqual(wantIRIs, gotIRIs) {
						t.Fatalf("trial %d: Neighbors(%s,%v,%s) = %v, want %v",
							trial, iriS, dir, pIRI, gotIRIs, wantIRIs)
					}
				}
			}
		}
		// Attribute lists agree.
		for ai := 0; ai < g2.NumAttrs(); ai++ {
			at := g2.Terms().Attr(dict.AttrID(ai))
			oa, ok := v.LookupAttr(at.Predicate, at.Literal())
			if !ok {
				t.Fatalf("trial %d: overlay missing attr %v", trial, at)
			}
			want := g2.AttrVertices(dict.AttrID(ai))
			gotA := v.AttrCandidates([]dict.AttrID{oa})
			if len(want) != len(gotA) {
				t.Fatalf("trial %d: attr %v lists differ: %d vs %d", trial, at, len(gotA), len(want))
			}
		}
	}
}

// TestCardinalitiesBlendOverlay: planner statistics over a view must
// reflect overlay additions (including edge types and vertices the base
// has never seen) and tombstones, without mutating the base statistics.
func TestCardinalitiesBlendOverlay(t *testing.T) {
	g, ix := buildBase(t, baseData)
	v := NewView(g, ix)
	if v.Cardinalities() != ix.Card {
		t.Fatal("empty view must expose the base statistics unchanged")
	}
	baseKnows, _ := v.LookupEdgeType("http://p/knows")
	baseEdges := ix.Card.Edges[baseKnows]
	baseOut := ix.Card.OutVertices[baseKnows]
	baseNumV := ix.Card.NumVertices

	// Add: a fan of 3 edges with a brand-new type from a brand-new hub,
	// plus one more `knows` edge out of a (a already has outgoing knows).
	// Delete: b's only outgoing knows edge (b→c).
	v2, err := v.Apply(
		[]rdf.Triple{
			tr("http://x/hub", "http://p/follows", "http://x/a"),
			tr("http://x/hub", "http://p/follows", "http://x/b"),
			tr("http://x/hub", "http://p/follows", "http://x/c"),
			tr("http://x/a", "http://p/knows", "http://x/hub"),
		},
		[]rdf.Triple{tr("http://x/b", "http://p/knows", "http://x/c")})
	if err != nil {
		t.Fatal(err)
	}
	card := v2.Cardinalities()
	if card == nil {
		t.Fatal("nil blended cardinalities")
	}
	if card == ix.Card {
		t.Fatal("overlay view returned the base statistics object")
	}
	follows, ok := v2.LookupEdgeType("http://p/follows")
	if !ok {
		t.Fatal("overlay edge type not resolvable")
	}
	if got := card.Edges[follows]; got != 3 {
		t.Errorf("Edges[follows] = %d, want 3", got)
	}
	if got := card.VerticesWith(index.Outgoing, follows); got != 1 {
		t.Errorf("OutVertices[follows] = %d, want 1 (the hub)", got)
	}
	if got := card.VerticesWith(index.Incoming, follows); got != 3 {
		t.Errorf("InVertices[follows] = %d, want 3", got)
	}
	// knows: +1 edge (a→hub), −1 edge (b→c tombstone). a already had
	// outgoing knows, so OutVertices must not double-count it.
	if got, want := card.Edges[baseKnows], baseEdges; got != want {
		t.Errorf("Edges[knows] = %d, want %d", got, want)
	}
	if got, want := card.OutVertices[baseKnows], baseOut; got != want {
		t.Errorf("OutVertices[knows] = %d, want %d", got, want)
	}
	// hub gained incoming knows (a→hub): one more incoming-knows vertex.
	if got, want := card.VerticesWith(index.Incoming, baseKnows), ix.Card.InVertices[baseKnows]+1; got != want {
		t.Errorf("InVertices[knows] = %d, want %d", got, want)
	}
	if got, want := card.NumVertices, baseNumV+1; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	// The base statistics stayed untouched, and the blend is cached.
	if ix.Card.Edges[baseKnows] != baseEdges || ix.Card.NumVertices != baseNumV {
		t.Error("base Cardinalities mutated by the blend")
	}
	if int(follows) < len(ix.Card.Edges) {
		t.Error("base Cardinalities grew an overlay edge type")
	}
	if v2.Cardinalities() != card {
		t.Error("blend not cached across calls")
	}
	// Fanout over the blend is usable by the planner: 3 follows edges
	// from one source vertex.
	if got := card.Fanout(index.Outgoing, follows); got != 3 {
		t.Errorf("Fanout(out, follows) = %v, want 3", got)
	}
}
