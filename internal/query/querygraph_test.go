package query

import (
	"testing"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/rdf"
	"repro/internal/sparql"
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

// figure2 is the paper's Figure 2a query, with the paper's predicate typos
// corrected to match the Figure 1 data (wasMarriedTo, hasCapacityOf,
// foundedIn 1994) so that the query is satisfiable.
const figure2 = `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?X0 ?X1 ?X2 ?X3 ?X4 ?X5 ?X6 WHERE {
  ?X0 y:wasBornIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:wasMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacityOf "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X5 y:foundedIn "1994" .
  ?X3 y:livedIn x:United_States .
}`

func dataGraph(t *testing.T) *multigraph.Graph {
	t.Helper()
	triples, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildQuery(t *testing.T, src string, g *multigraph.Graph) *Graph {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("sparql parse: %v", err)
	}
	qg, err := Build(pq, g.Terms())
	if err != nil {
		t.Fatalf("query build: %v", err)
	}
	return qg
}

func (g *Graph) mustVar(t *testing.T, name string) VertexID {
	t.Helper()
	id, ok := g.VarIndex[name]
	if !ok {
		t.Fatalf("variable %q missing", name)
	}
	return id
}

func TestFigure2Translation(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, figure2, dg)
	if qg.Unsat {
		t.Fatalf("query reported unsat: %s", qg.UnsatReason)
	}
	if len(qg.Vars) != 7 {
		t.Fatalf("vars = %d, want 7", len(qg.Vars))
	}

	// u5 carries two attributes (a1, a2).
	u5 := qg.mustVar(t, "X5")
	if len(qg.Vars[u5].Attrs) != 2 {
		t.Errorf("X5 attrs = %v, want 2", qg.Vars[u5].Attrs)
	}
	// u4 carries one attribute (a0).
	u4 := qg.mustVar(t, "X4")
	if len(qg.Vars[u4].Attrs) != 1 {
		t.Errorf("X4 attrs = %v, want 1", qg.Vars[u4].Attrs)
	}
	// u3 has one IRI constraint: edge u3 → United_States, probed Incoming
	// at the data vertex.
	u3 := qg.mustVar(t, "X3")
	if len(qg.Vars[u3].IRIs) != 1 {
		t.Fatalf("X3 IRI constraints = %v, want 1", qg.Vars[u3].IRIs)
	}
	us, _ := dg.Terms().LookupVertex("http://dbpedia.org/resource/United_States")
	c := qg.Vars[u3].IRIs[0]
	if c.DataVertex != us || c.Dir != index.Incoming || len(c.Types) != 1 {
		t.Errorf("X3 IRI constraint = %+v", c)
	}

	// Multi-edge u3 → u1 must merge {wasBornIn, diedIn}.
	u1 := qg.mustVar(t, "X1")
	ab, ba := qg.EdgesBetween(u3, u1)
	if len(ab) != 2 {
		t.Errorf("u3→u1 types = %v, want 2 merged types", ab)
	}
	if ba != nil {
		t.Errorf("u1→u3 types = %v, want none", ba)
	}
	// u1 ↔ u2 has one edge each direction.
	u2 := qg.mustVar(t, "X2")
	ab, ba = qg.EdgesBetween(u1, u2)
	if len(ab) != 1 || len(ba) != 1 {
		t.Errorf("u1↔u2 = %v / %v, want one type each way", ab, ba)
	}
}

func TestFigure2Decomposition(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, figure2, dg)
	if len(qg.Components) != 1 {
		t.Fatalf("components = %d, want 1", len(qg.Components))
	}
	comp := qg.Components[0]
	u1, u3, u5 := qg.mustVar(t, "X1"), qg.mustVar(t, "X3"), qg.mustVar(t, "X5")

	// Paper: U_c = {u1, u3, u5}. Core lists membership in ascending vertex
	// order; the matching order over it is chosen by internal/plan.
	if len(comp.Core) != 3 || comp.Core[0] != u1 || comp.Core[1] != u3 || comp.Core[2] != u5 {
		names := make([]string, len(comp.Core))
		for i, u := range comp.Core {
			names[i] = qg.Vars[u].Name
		}
		t.Fatalf("core = %v, want [X1 X3 X5] (ascending ids)", names)
	}
	// Paper: u1 has satellites {u0, u2, u4}; u3 has {u6}; u5 has none.
	if got := comp.Satellites[u1]; len(got) != 3 {
		t.Errorf("satellites of X1 = %v, want 3", got)
	}
	if got := comp.Satellites[u3]; len(got) != 1 || qg.Vars[got[0]].Name != "X6" {
		t.Errorf("satellites of X3 = %v, want [X6]", got)
	}
	if got := comp.Satellites[u5]; len(got) != 0 {
		t.Errorf("satellites of X5 = %v, want none", got)
	}
	if got := len(comp.Vertices()); got != 7 {
		t.Errorf("component vertices = %d, want 7", got)
	}
}

func TestVarDegrees(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, figure2, dg)
	wantDeg := map[string]int{
		"X0": 1, "X1": 5, "X2": 1, "X3": 3, "X4": 1, "X5": 2, "X6": 1,
	}
	for name, want := range wantDeg {
		if got := qg.VarDegree(qg.mustVar(t, name)); got != want {
			t.Errorf("deg(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestUnsatOnUnknownConstants(t *testing.T) {
	dg := dataGraph(t)
	cases := []struct {
		name, src string
	}{
		{"unknown predicate", `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a WHERE { ?a y:nonexistent ?b }`},
		{"unknown literal", `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a WHERE { ?a y:hasName "No_Such_Band" }`},
		{"unknown IRI", `PREFIX y: <http://dbpedia.org/ontology/> PREFIX x: <http://dbpedia.org/resource/> SELECT ?a WHERE { ?a y:livedIn x:Atlantis }`},
		// The paper's original Figure 2a text uses isMarriedTo, which does
		// not occur in the Figure 1 data (data says wasMarriedTo).
		{"paper typo", `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:isMarriedTo ?b }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qg := buildQuery(t, tc.src, dg)
			if !qg.Unsat {
				t.Errorf("query not marked unsat")
			}
			if qg.UnsatReason == "" {
				t.Error("missing unsat reason")
			}
		})
	}
}

func TestGroundChecks(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?who WHERE {
  x:London y:isPartOf x:England .
  x:WembleyStadium y:hasCapacityOf "90000" .
  ?who y:wasBornIn x:London .
}`, dg)
	if qg.Unsat {
		t.Fatalf("unsat: %s", qg.UnsatReason)
	}
	if len(qg.GroundEdges) != 1 {
		t.Errorf("ground edges = %v, want 1", qg.GroundEdges)
	}
	if len(qg.GroundAttrs) != 1 {
		t.Errorf("ground attrs = %v, want 1", qg.GroundAttrs)
	}
	if len(qg.Vars) != 1 {
		t.Errorf("vars = %d, want 1", len(qg.Vars))
	}
}

func TestSelfLoop(t *testing.T) {
	triples, err := rdf.ParseString(`<http://x/a> <http://y/p> <http://x/a> .
<http://x/a> <http://y/p> <http://x/b> .
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	qg := buildQuery(t, `SELECT ?v WHERE { ?v <http://y/p> ?v }`, g)
	if qg.Unsat {
		t.Fatal("self-loop query marked unsat")
	}
	v := qg.mustVar(t, "v")
	if len(qg.Vars[v].SelfTypes) != 1 {
		t.Errorf("SelfTypes = %v", qg.Vars[v].SelfTypes)
	}
	if qg.VarDegree(v) != 0 {
		t.Errorf("self-loop degree = %d, want 0", qg.VarDegree(v))
	}
	// Single-vertex component, v is the core.
	if len(qg.Components) != 1 || len(qg.Components[0].Core) != 1 {
		t.Errorf("components = %+v", qg.Components)
	}
}

func TestDisconnectedComponents(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?a y:wasBornIn ?b .
  ?c y:livedIn ?d .
}`, dg)
	if len(qg.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(qg.Components))
	}
	for _, comp := range qg.Components {
		if len(comp.Core) != 1 {
			t.Errorf("pair component core = %v, want exactly 1", comp.Core)
		}
		total := len(comp.Vertices())
		if total != 2 {
			t.Errorf("component vertices = %d, want 2", total)
		}
	}
}

func TestPairComponentPicksConstrainedCore(t *testing.T) {
	dg := dataGraph(t)
	// ?b has an attribute; with equal rank2, attribute count breaks the tie.
	qg := buildQuery(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE { ?a y:wasPartOf ?b . ?b y:hasName "MCA_Band" . }`, dg)
	comp := qg.Components[0]
	if len(comp.Core) != 1 {
		t.Fatalf("core = %v", comp.Core)
	}
	if qg.Vars[comp.Core[0]].Name != "b" {
		t.Errorf("core = %s, want the attributed vertex b", qg.Vars[comp.Core[0]].Name)
	}
}

func TestQuerySynopsis(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, figure2, dg)
	// X0 has a single outgoing edge (wasBornIn): synopsis must constrain
	// only the outgoing half and relax the incoming f3.
	u0 := qg.mustVar(t, "X0")
	syn := qg.Synopsis(u0)
	if syn[4] != 1 || syn[5] != 1 {
		t.Errorf("X0 outgoing f1/f2 = %d/%d, want 1/1", syn[4], syn[5])
	}
	if syn[0] != 0 {
		t.Errorf("X0 incoming f1 = %d, want 0", syn[0])
	}
	born, _ := dg.Terms().LookupEdgeType("http://dbpedia.org/ontology/wasBornIn")
	if syn[7] != int32(born) {
		t.Errorf("X0 f4- = %d, want %d", syn[7], born)
	}
	// The IRI edge of X3 (livedIn United_States) must appear in X3's
	// outgoing signature.
	u3 := qg.mustVar(t, "X3")
	syn3 := qg.Synopsis(u3)
	// X3 has outgoing multi-edges: {born,died}→X1, {married}→X6,
	// {partOf}→X5, {livedIn}→IRI: f2- = 5 distinct types.
	if syn3[5] != 5 {
		t.Errorf("X3 f2- = %d, want 5", syn3[5])
	}
	if syn3[4] != 2 {
		t.Errorf("X3 f1- = %d, want 2 (the {born,died} multi-edge)", syn3[4])
	}
}

func TestEmptyQueryGraph(t *testing.T) {
	var d dict.Snapshot
	pq, err := sparql.Parse(`SELECT * WHERE { <http://x/a> <http://y/p> <http://x/b> }`)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := Build(pq, &d)
	if err != nil {
		t.Fatal(err)
	}
	if !qg.Unsat {
		t.Error("ground pattern against empty data should be unsat")
	}
	if len(qg.Components) != 0 {
		t.Errorf("components = %v", qg.Components)
	}
}

func TestAllSatellitesOrder(t *testing.T) {
	dg := dataGraph(t)
	qg := buildQuery(t, figure2, dg)
	comp := qg.Components[0]
	sats := comp.AllSatellites()
	if len(sats) != 4 {
		t.Fatalf("AllSatellites = %d, want 4", len(sats))
	}
	// Core ids ascend as [X1 X3 X5]; X1's satellites come first, then
	// X3's X6.
	names := make([]string, len(sats))
	for i, u := range sats {
		names[i] = qg.Vars[u].Name
	}
	if names[3] != "X6" {
		t.Errorf("AllSatellites order = %v, want X6 last", names)
	}
}

func TestDuplicatePatternsMerge(t *testing.T) {
	dg := dataGraph(t)
	// The same pattern twice, a duplicated self loop, and a duplicated
	// attribute must all collapse.
	qg := buildQuery(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?a y:wasBornIn ?b .
  ?a y:wasBornIn ?b .
  ?a y:diedIn ?b .
}`, dg)
	a := qg.mustVar(t, "a")
	b := qg.mustVar(t, "b")
	ab, _ := qg.EdgesBetween(a, b)
	if len(ab) != 2 {
		t.Errorf("merged multi-edge = %v, want 2 types", ab)
	}
	if _, ba := qg.EdgesBetween(a, b); ba != nil {
		t.Errorf("reverse types = %v, want none", ba)
	}
}

func TestSelfLoopSynopsisBothSides(t *testing.T) {
	triples, err := rdf.ParseString(`<http://x/a> <http://y/p> <http://x/a> .`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	qg := buildQuery(t, `SELECT ?v WHERE { ?v <http://y/p> ?v . ?v <http://y/p> ?v . }`, g)
	v := qg.mustVar(t, "v")
	if len(qg.Vars[v].SelfTypes) != 1 {
		t.Fatalf("SelfTypes = %v, want deduplicated single type", qg.Vars[v].SelfTypes)
	}
	syn := qg.Synopsis(v)
	// Self loop contributes to both directions: f1+ and f1- are 1.
	if syn[0] != 1 || syn[4] != 1 {
		t.Errorf("self-loop synopsis = %v", syn)
	}
}

func TestTriangleAllCore(t *testing.T) {
	dg := dataGraph(t)
	// A triangle: every vertex has degree 2 — all three are core, none is
	// a satellite. (Which of them is matched first is the planner's call;
	// see internal/plan.)
	qg := buildQuery(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE {
  ?a y:wasBornIn ?b .
  ?b y:isPartOf ?c .
  ?c y:hasCapital ?a .
  ?a y:livedIn x:United_States .
}`, dg)
	comp := qg.Components[0]
	if len(comp.Core) != 3 {
		t.Fatalf("core = %v, want 3 (triangle)", comp.Core)
	}
	if got := qg.Rank2(qg.mustVar(t, "a")); got != 3 {
		t.Errorf("Rank2(a) = %d, want 3 (two triangle edges + IRI edge)", got)
	}
}

// parseQ is a small helper for the literal-satellite tests.
func parseQ(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestLitSatelliteAttrOnlyPredicate: `?s p ?o` over a predicate that only
// occurs with literal objects used to be unsatisfiable; it now yields a
// literal satellite attached to the subject.
func TestLitSatelliteAttrOnlyPredicate(t *testing.T) {
	g := dataGraph(t)
	q := parseQ(t, `PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?s ?n WHERE { ?s y:hasName ?n }`)
	qg, err := Build(q, g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	if qg.Unsat {
		t.Fatalf("attr-only predicate unsat: %s", qg.UnsatReason)
	}
	uo := qg.VarIndex["n"]
	us := qg.VarIndex["s"]
	lit := qg.Vars[uo].Lit
	if lit == nil {
		t.Fatal("object variable has no Lit constraint")
	}
	if lit.SubjectVar != us || len(lit.Types) != 0 || len(lit.Attrs) == 0 {
		t.Errorf("Lit = %+v", lit)
	}
	if len(qg.Components) != 1 {
		t.Fatalf("components = %d, want 1 (lit link must connect)", len(qg.Components))
	}
	comp := qg.Components[0]
	if len(comp.Core) != 1 || comp.Core[0] != us {
		t.Errorf("core = %v, want [?s]", comp.Core)
	}
	if sats := comp.Satellites[us]; len(sats) != 1 || sats[0] != uo {
		t.Errorf("satellites = %v, want [?n]", sats)
	}
}

// TestLitSatelliteConstSubject: a constant subject makes the literal
// satellite its own single-vertex component with a fixed candidate list.
func TestLitSatelliteConstSubject(t *testing.T) {
	g := dataGraph(t)
	q := parseQ(t, `PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?n WHERE { x:Music_Band y:hasName ?n }`)
	qg, err := Build(q, g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	uo := qg.VarIndex["n"]
	lit := qg.Vars[uo].Lit
	if lit == nil || lit.SubjectVar >= 0 {
		t.Fatalf("Lit = %+v, want constant subject", lit)
	}
	if want, _ := g.Terms().LookupVertex("http://dbpedia.org/resource/Music_Band"); lit.SubjectVertex != want {
		t.Errorf("SubjectVertex = %d, want %d", lit.SubjectVertex, want)
	}
	if len(qg.Components) != 1 || len(qg.Components[0].Core) != 1 || qg.Components[0].Core[0] != uo {
		t.Errorf("decomposition = %+v", qg.Components)
	}
}

// TestLitSatelliteMultiOccurrenceStaysVertex: a variable that joins
// across patterns keeps the paper's vertex-only semantics.
func TestLitSatelliteMultiOccurrenceStaysVertex(t *testing.T) {
	g := dataGraph(t)
	q := parseQ(t, `PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?b WHERE { ?a y:wasBornIn ?b . ?c y:diedIn ?b }`)
	qg, err := Build(q, g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	if qg.Vars[qg.VarIndex["b"]].Lit != nil {
		t.Error("join variable acquired a Lit constraint")
	}
}

// TestLitSatelliteMixedPredicate: when the predicate is both an edge type
// and an attribute predicate, the satellite probes both sides.
func TestLitSatelliteMixedPredicate(t *testing.T) {
	triples, err := rdf.ParseString(`
<http://x/b> <http://p/mixed> <http://x/a> .
<http://x/b> <http://p/mixed> "both" .
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	q := parseQ(t, `SELECT ?v WHERE { ?s <http://p/mixed> ?v }`)
	qg, err := Build(q, g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	lit := qg.Vars[qg.VarIndex["v"]].Lit
	if lit == nil {
		t.Fatal("mixed predicate: no Lit")
	}
	if len(lit.Types) != 1 || len(lit.Attrs) != 1 {
		t.Errorf("Lit = %+v, want one edge type and one attribute", lit)
	}
}
