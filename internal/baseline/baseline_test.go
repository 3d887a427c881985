package baseline

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
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

func loadGraph(t *testing.T) *Graph {
	t.Helper()
	ts, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func count(t *testing.T, g *Graph, src string, opts Options) uint64 {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.Count(g.Compile(pq), opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBasicCounts(t *testing.T) {
	g := loadGraph(t)
	tests := []struct {
		name, q string
		want    uint64
	}{
		{"livedIn", `PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?a y:livedIn ?b }`, 3},
		{"born+died", `PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?w y:wasBornIn ?c . ?w y:diedIn ?c }`, 1},
		{"literal const", `PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?s y:hasName "MCA_Band" }`, 1},
		{"iri anchor", `PREFIX y: <http://dbpedia.org/ontology/> PREFIX x: <http://dbpedia.org/resource/> SELECT * WHERE { ?w y:livedIn x:United_States }`, 2},
		{"vars never bind literals", `PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?s y:hasName ?o }`, 0},
		{"ground true", `PREFIX y: <http://dbpedia.org/ontology/> PREFIX x: <http://dbpedia.org/resource/> SELECT * WHERE { x:London y:isPartOf x:England }`, 1},
		{"ground false", `PREFIX y: <http://dbpedia.org/ontology/> PREFIX x: <http://dbpedia.org/resource/> SELECT * WHERE { x:England y:isPartOf x:London }`, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := count(t, g, tc.q, Options{}); got != tc.want {
				t.Errorf("count = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestDuplicateTriplesCollapse(t *testing.T) {
	ts, _ := rdf.ParseString(`<http://x/a> <http://y/p> <http://x/b> .
<http://x/a> <http://y/p> <http://x/b> .
`)
	g, err := FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := sparql.Parse(`SELECT * WHERE { ?a <http://y/p> ?b }`)
	n, _ := g.Count(g.Compile(pq), Options{})
	if n != 1 {
		t.Errorf("count = %d, want 1 after dedup", n)
	}
}

func TestSelfLoop(t *testing.T) {
	ts, _ := rdf.ParseString(`<http://x/a> <http://y/p> <http://x/a> .
<http://x/a> <http://y/p> <http://x/b> .
`)
	g, err := FromTriples(ts)
	if err != nil {
		t.Fatal(err)
	}
	pq, _ := sparql.Parse(`SELECT ?v WHERE { ?v <http://y/p> ?v }`)
	n, _ := g.Count(g.Compile(pq), Options{})
	if n != 1 {
		t.Errorf("self-loop count = %d, want 1", n)
	}
}

func TestUnsat(t *testing.T) {
	g := loadGraph(t)
	pq, _ := sparql.Parse(`PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:nope ?b }`)
	c := g.Compile(pq)
	if !c.Unsat() {
		t.Error("not unsat")
	}
	if n, err := g.Count(c, Options{}); err != nil || n != 0 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestLimitDeadlineAbort(t *testing.T) {
	g := loadGraph(t)
	pq, _ := sparql.Parse(`PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?a y:livedIn ?b }`)
	c := g.Compile(pq)
	n, err := g.Count(c, Options{Limit: 2})
	if err != nil || n != 2 {
		t.Errorf("limited = %d, %v", n, err)
	}
	if _, err := g.Count(c, Options{Deadline: time.Now().Add(-time.Second)}); err != ErrDeadlineExceeded {
		t.Errorf("deadline err = %v", err)
	}
	calls := 0
	if err := g.Stream(c, Options{}, func([]nodeID) bool { calls++; return false }); err != nil || calls != 1 {
		t.Errorf("abort calls = %d, %v", calls, err)
	}
}

func TestNodeName(t *testing.T) {
	g := loadGraph(t)
	pq, _ := sparql.Parse(`PREFIX y: <http://dbpedia.org/ontology/> SELECT * WHERE { ?a y:wasMarriedTo ?b }`)
	c := g.Compile(pq)
	found := false
	_ = g.Stream(c, Options{}, func(asg []nodeID) bool {
		for i, name := range c.VarNames() {
			if name == "b" && g.NodeName(asg[i]) == "http://dbpedia.org/resource/Blake_Fielder-Civil" {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Error("Blake binding not found")
	}
}

// ---- three-engine equivalence ------------------------------------------

// randomDataset and randomQuery mirror the engine package's property test.
func randomDataset(rng *rand.Rand, nV, nP, nE, nLit int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < nE; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV))),
			P: rdf.NewIRI(fmt.Sprintf("http://y/p%d", rng.Intn(nP))),
			O: rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV))),
		})
	}
	for i := 0; i < nLit; i++ {
		ts = append(ts, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV))),
			P: rdf.NewIRI(fmt.Sprintf("http://y/a%d", rng.Intn(3))),
			O: rdf.NewLiteral(fmt.Sprintf("%d", rng.Intn(3))),
		})
	}
	return ts
}

func randomQuery(rng *rand.Rand, ts []rdf.Triple, size int) *sparql.Query {
	q := &sparql.Query{Star: true, Prefixes: &rdf.PrefixMap{}}
	varOf := map[string]string{}
	nextVar := 0
	termFor := func(iri string) sparql.Term {
		if rng.Intn(6) == 0 {
			return sparql.Term{Kind: sparql.IRI, Value: iri}
		}
		name, ok := varOf[iri]
		if !ok {
			name = fmt.Sprintf("v%d", nextVar)
			nextVar++
			varOf[iri] = name
		}
		return sparql.Term{Kind: sparql.Var, Value: name}
	}
	for len(q.Patterns) < size {
		tr := ts[rng.Intn(len(ts))]
		var o sparql.Term
		if tr.O.IsLiteral() {
			o = sparql.Term{Kind: sparql.Literal, Value: tr.O.Value}
		} else {
			o = termFor(tr.O.Value)
		}
		q.Patterns = append(q.Patterns, sparql.TriplePattern{
			S: termFor(tr.S.Value),
			P: sparql.Term{Kind: sparql.IRI, Value: tr.P.Value},
			O: o,
		})
	}
	return q
}

// TestThreeEngineEquivalence: AMbER, the triple store, and this baseline
// must agree on result counts for arbitrary workloads. This is the paper's
// implicit correctness claim — all engines answer the same queries.
func TestThreeEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		ts := randomDataset(rng, 9, 4, 22, 6)
		pq := randomQuery(rng, ts, 1+rng.Intn(5))

		mg, err := multigraph.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(mg)
		qg, err := query.Build(pq, mg.Terms())
		if err != nil {
			t.Fatal(err)
		}
		amber, err := engine.Count(index.NewReader(mg, ix), plan.For(qg, index.NewReader(mg, ix)), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}

		st, err := triplestore.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := st.Count(st.Compile(pq), triplestore.Options{})
		if err != nil {
			t.Fatal(err)
		}

		bg, err := FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		gra, err := bg.Count(bg.Compile(pq), Options{})
		if err != nil {
			t.Fatal(err)
		}

		if amber != rel || rel != gra {
			t.Fatalf("trial %d: amber=%d triplestore=%d baseline=%d\nquery:\n%s",
				trial, amber, rel, gra, pq)
		}
	}
}
