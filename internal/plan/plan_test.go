package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/query"
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

type fixture struct {
	g  *multigraph.Graph
	ix *index.Index
}

// rd adapts the fixture to the planner's probe surface.
func (f *fixture) rd() index.Reader { return index.NewReader(f.g, f.ix) }

func load(t *testing.T, src string) *fixture {
	t.Helper()
	triples, err := rdf.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, ix: index.Build(g)}
}

func (f *fixture) query(t *testing.T, src string) *query.Graph {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := query.Build(pq, f.g.Terms())
	if err != nil {
		t.Fatal(err)
	}
	return qg
}

func coreNames(qg *query.Graph, cp *ComponentPlan) []string {
	names := make([]string, len(cp.Core))
	for i, u := range cp.Core {
		names[i] = qg.Vars[u].Name
	}
	return names
}

// TestHeuristicFigure2Order pins the paper's Section 5.3 example: the
// VertexOrdering of Figure 2 is U_c^ord = (u1, u3, u5).
func TestHeuristicFigure2Order(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	p := Heuristic().Plan(qg, f.rd())
	if p.Planner != "heuristic" {
		t.Errorf("planner = %q", p.Planner)
	}
	if len(p.Components) != 1 {
		t.Fatalf("components = %d", len(p.Components))
	}
	got := coreNames(qg, &p.Components[0])
	if strings.Join(got, " ") != "X1 X3 X5" {
		t.Errorf("heuristic order = %v, want [X1 X3 X5]", got)
	}
}

// TestHeuristicRank2Priority pins the r2 tie-break: in a triangle with no
// satellites, the vertex with the extra IRI edge (highest r2) goes first.
func TestHeuristicRank2Priority(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE {
  ?a y:wasBornIn ?b .
  ?b y:isPartOf ?c .
  ?c y:hasCapital ?a .
  ?a y:livedIn x:United_States .
}`)
	p := Heuristic().Plan(qg, f.rd())
	if got := coreNames(qg, &p.Components[0]); got[0] != "a" {
		t.Errorf("first core = %s, want a (highest r2 via IRI edge)", got[0])
	}
}

// TestHeuristicConnectedPrefix: every vertex after the first must share an
// edge with the already-ordered prefix (for both planners).
func TestConnectedPrefix(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	for _, pl := range []Planner{Heuristic(), CostBased()} {
		p := pl.Plan(qg, f.rd())
		comp := &p.Components[0]
		seen := map[query.VertexID]bool{comp.Core[0]: true}
		for _, u := range comp.Core[1:] {
			connected := false
			for _, w := range qg.VarNeighbors(u) {
				if seen[w] {
					connected = true
					break
				}
			}
			if !connected {
				t.Errorf("%s: vertex ?%s not connected to ordered prefix", pl.Name(), qg.Vars[u].Name)
			}
			seen[u] = true
		}
	}
}

// TestCostBasedPrefersRareStart: on data where one edge type is rare and
// another ubiquitous, the cost-based planner starts at the vertex
// constrained by the rare type, while the structure-only heuristic cannot
// tell them apart.
func TestCostBasedPrefersRareStart(t *testing.T) {
	var sb strings.Builder
	// 100 "common" edges, 2 "rare" edges, and a path query over them:
	// ?a -common-> ?b -rare-> ?c -after-> ?d.
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "<http://x/s%d> <http://y/common> <http://x/m%d> .\n", i, i%10)
	}
	fmt.Fprintf(&sb, "<http://x/m0> <http://y/rare> <http://x/t0> .\n")
	fmt.Fprintf(&sb, "<http://x/m1> <http://y/rare> <http://x/t1> .\n")
	fmt.Fprintf(&sb, "<http://x/t0> <http://y/after> <http://x/z0> .\n")
	fmt.Fprintf(&sb, "<http://x/t1> <http://y/after> <http://x/z1> .\n")
	f := load(t, sb.String())
	qg := f.query(t, `SELECT * WHERE {
  ?a <http://y/common> ?b .
  ?b <http://y/rare> ?c .
  ?c <http://y/after> ?d .
}`)
	p := CostBased().Plan(qg, f.rd())
	comp := &p.Components[0]
	first := qg.Vars[comp.Core[0]].Name
	if first != "b" && first != "c" {
		t.Errorf("cost-based start = ?%s, want ?b or ?c (rare-edge endpoints); estimates %v",
			first, comp.Estimates)
	}
	// Estimates must be populated and finite for every core vertex.
	for i, e := range comp.Estimates {
		if e < 0 || e != e || e > 1e12 {
			t.Errorf("estimate[%d] = %v", i, e)
		}
	}
}

// TestFixedCandidatesPrecomputed: plan-time Algorithm 1 must materialize
// attribute/IRI candidate lists, and mark impossible vertices Empty.
func TestFixedCandidatesPrecomputed(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	p := For(qg, f.rd())
	u5 := qg.VarIndex["X5"]
	if !p.IsFixed[u5] || len(p.Fixed[u5]) != 1 {
		t.Errorf("X5 fixed candidates = %v (isFixed=%v), want exactly Music_Band",
			p.Fixed[u5], p.IsFixed[u5])
	}
	u0 := qg.VarIndex["X0"]
	if p.IsFixed[u0] {
		t.Errorf("X0 has no attrs/IRIs but is marked fixed")
	}
	if p.Empty {
		t.Errorf("satisfiable plan marked empty: %s", p.EmptyReason)
	}
}

// TestEmptyVerdicts: unsat queries, failing ground checks and empty fixed
// sets must all mark the plan Empty with a reason.
func TestEmptyVerdicts(t *testing.T) {
	f := load(t, figure1)
	cases := []string{
		// Unsat at translation (unknown predicate).
		`PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:isMarriedTo ?b }`,
		// Ground edge with wrong type direction.
		`PREFIX y: <http://dbpedia.org/ontology/>
		 PREFIX x: <http://dbpedia.org/resource/>
		 SELECT ?a ?b WHERE { x:London y:hasCapital x:England . ?a y:livedIn ?b }`,
		// Attribute + IRI constraints that cannot intersect.
		`PREFIX y: <http://dbpedia.org/ontology/>
		 PREFIX x: <http://dbpedia.org/resource/>
		 SELECT ?a WHERE { ?a y:hasName "MCA_Band" . ?a y:livedIn x:United_States . ?a y:wasBornIn ?b . ?a y:diedIn ?c . }`,
	}
	for i, src := range cases {
		p := For(f.query(t, src), f.rd())
		if !p.Empty || p.EmptyReason == "" {
			t.Errorf("case %d: plan not marked empty (reason %q)", i, p.EmptyReason)
		}
	}
}

// TestByName covers the planner registry used by flags and the server.
func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "cost", "cost": "cost", "cost-based": "cost",
		"heuristic": "heuristic", "paper": "heuristic",
	} {
		pl, ok := ByName(name)
		if !ok || pl.Name() != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, pl, ok, want)
		}
	}
	if _, ok := ByName("nonsense"); ok {
		t.Error("ByName accepted nonsense")
	}
}

// TestSatelliteEnumerationOrder: AllSatellites follows the matching order.
func TestSatelliteEnumerationOrder(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	p := Heuristic().Plan(qg, f.rd())
	sats := p.Components[0].AllSatellites()
	if len(sats) != 4 {
		t.Fatalf("satellites = %d, want 4", len(sats))
	}
	if qg.Vars[sats[3]].Name != "X6" {
		names := make([]string, len(sats))
		for i, u := range sats {
			names[i] = qg.Vars[u].Name
		}
		t.Errorf("satellite order = %v, want X6 (attached to X3) last", names)
	}
}
