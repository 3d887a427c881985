package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func parse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

func TestIsPlain(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{`SELECT ?s WHERE { ?s <http://y/p> ?o }`, true},
		{`SELECT ?s WHERE { ?s <http://y/p> ?o } LIMIT 3`, true},
		{`SELECT DISTINCT ?s WHERE { ?s <http://y/p> ?o }`, false},
		{`SELECT ?s WHERE { ?s <http://y/p> ?o } OFFSET 1`, false},
		{`SELECT ?s WHERE { ?s <http://y/p> ?o . FILTER (?s != ?o) }`, false},
		{`SELECT ?s WHERE { { ?s <http://y/p> ?o } UNION { ?s <http://y/q> ?o } }`, false},
	}
	for _, tc := range cases {
		if got := IsPlain(parse(t, tc.src)); got != tc.want {
			t.Errorf("IsPlain(%q) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestExecuteDistinctUnionFilters(t *testing.T) {
	s := newStore(t)
	p := prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?p WHERE {
  { ?p y:wasBornIn ?c } UNION { ?p y:diedIn ?c }
  FILTER strstarts(str(?p), "http://dbpedia.org/resource/A")
}`)
	var got []string
	if err := p.Execute(engine.Options{}, func(sol Solution) bool {
		got = append(got, sol[0].Value)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.HasSuffix(got[0], "Amy_Winehouse") {
		t.Errorf("Execute result = %v", got)
	}
}

func TestExecuteEarlyStop(t *testing.T) {
	s := newStore(t)
	p := prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a WHERE { ?a y:livedIn ?b }`)
	calls := 0
	if err := p.Execute(engine.Options{}, func(Solution) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestExecuteOffsetBeyondEnd(t *testing.T) {
	s := newStore(t)
	p := prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a WHERE { ?a y:livedIn ?b } OFFSET 50`)
	n := 0
	if err := p.Execute(engine.Options{}, func(Solution) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("rows = %d, want 0", n)
	}
}

func TestExecuteFilterVariableVariants(t *testing.T) {
	s := newStore(t)
	// ?a regex ?b: contains test between IRIs — London contains London.
	p := prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE {
  ?a y:isPartOf ?b .
  FILTER (?a = ?a)
  FILTER regex(?a, ?a)
  FILTER strstarts(?a, ?a)
}`)
	n := 0
	if err := p.Execute(engine.Options{}, func(Solution) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("rows = %d, want 2 (both isPartOf edges)", n)
	}
	// var != var filter removing everything.
	p = prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:isPartOf ?b . FILTER (?a != ?a) }`)
	n = 0
	if err := p.Execute(engine.Options{}, func(Solution) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("rows = %d, want 0", n)
	}
}

// TestSaveAfterCancelledNewTerms: a batch that inserts triples with new
// terms and one that deletes them again leave the overlay empty but the
// terms interned in the generation's dictionaries. Save still writes the
// snapshot it wrote before, byte for byte, and Compact drops the terms.
func TestSaveAfterCancelledNewTerms(t *testing.T) {
	s := newStore(t)
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	ts := []rdf.Triple{
		{S: rdf.NewIRI("http://x/new1"), P: rdf.NewIRI("http://y/newp"), O: rdf.NewIRI("http://x/new2")},
		{S: rdf.NewIRI("http://x/new1"), P: rdf.NewIRI("http://y/label"), O: rdf.NewLiteral("fresh")},
	}
	if err := s.Mutate(ts, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Mutate(nil, ts); err != nil {
		t.Fatal(err)
	}
	grown := func() [3]bool { // Mv, Me, Ma hold more terms than the graph's own
		g := s.Graph()
		return [3]bool{g.Dicts.Vertices.Len() > g.NumVertices(), g.Dicts.EdgeTypes.Len() > g.NumEdgeTypes(), g.Dicts.Attrs.Len() > g.NumAttrs()}
	}
	if !s.Snapshot().Delta.Empty() || grown() != [3]bool{true, true, true} {
		t.Fatalf("after insert and delete: overlay empty %v, dictionaries grown %v", s.Snapshot().Delta.Empty(), grown())
	}
	var after bytes.Buffer
	if err := s.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("Save after the cancelled batch wrote %d bytes that differ from the %d before", after.Len(), before.Len())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := grown(); g != [3]bool{} {
		t.Errorf("after Compact the dictionaries still hold the cancelled terms: %v", g)
	}
	if _, ok := s.Snapshot().Delta.LookupVertex("http://x/new1"); ok {
		t.Error("after Compact the cancelled vertex still resolves")
	}
}

func TestSaveAndLoadStore(t *testing.T) {
	s := newStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph().NumVertices() != s.Graph().NumVertices() {
		t.Errorf("vertices = %d, want %d", loaded.Graph().NumVertices(), s.Graph().NumVertices())
	}
	if loaded.BuildInfo().DatabaseBytes != s.BuildInfo().DatabaseBytes {
		t.Errorf("size estimate differs after load")
	}
	n, err := prepare(t, loaded, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`).Count(engine.Options{})
	if err != nil || n != 3 {
		t.Errorf("rows after load = %d, %v", n, err)
	}
	if _, err := LoadStore(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestUnionBranchUnboundProjection: a UNION branch that lacks a projected
// variable yields the zero Term at that variable's position.
func TestUnionBranchUnboundProjection(t *testing.T) {
	p := prepare(t, newStore(t), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p ?band WHERE {
  { ?p y:wasMarriedTo ?x } UNION { ?p y:wasPartOf ?band }
}`)
	if proj := p.Projection(); len(proj) != 2 || proj[1] != "band" {
		t.Fatalf("projection = %v", proj)
	}
	var rows []Solution
	if err := p.Execute(engine.Options{}, func(sol Solution) bool {
		rows = append(rows, sol)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	amy := rdf.NewIRI("http://dbpedia.org/resource/Amy_Winehouse")
	// Branch order: the wasMarriedTo branch (no ?band) comes first.
	if rows[0][0] != amy || !rows[0][1].IsZero() {
		t.Errorf("married branch row = %v, want ?band unbound (zero Term)", rows[0])
	}
	if rows[1][0] != amy || rows[1][1] != rdf.NewIRI("http://dbpedia.org/resource/Music_Band") {
		t.Errorf("band branch row = %v", rows[1])
	}
}

func TestExecuteUnsatBranchSkipped(t *testing.T) {
	s := newStore(t)
	// First branch unsatisfiable (unknown predicate), second fine: UNION
	// must still deliver the second branch's rows.
	p := prepare(t, s, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p WHERE {
  { ?p y:noSuchPredicate ?c } UNION { ?p y:wasMarriedTo ?c }
}`)
	n := 0
	if err := p.Execute(engine.Options{}, func(Solution) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("rows = %d, want 1", n)
	}
}

func TestExplain(t *testing.T) {
	s := newStore(t)
	out, err := s.ExplainQuery(plan.Default(), parse(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?X0 ?X1 ?X3 ?X5 WHERE {
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
}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"planner: cost", "core[0] ?X1",
		"satellites=[?X0 ?X2 ?X4]", "est=", "actual="} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	// The heuristic planner must also render, with its own name.
	pq := parse(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	hout, err := s.ExplainQuery(plan.Heuristic(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hout, "planner: heuristic") || !strings.Contains(hout, "actual=") {
		t.Errorf("heuristic explain:\n%s", hout)
	}
}

func TestExplainUnsatAndErrors(t *testing.T) {
	s := newStore(t)
	out, err := s.ExplainQuery(plan.Default(), parse(t, `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:isMarriedTo ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "UNSATISFIABLE") {
		t.Errorf("unsat not reported:\n%s", out)
	}
	out, err = s.ExplainQuery(plan.Default(), parse(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT DISTINCT ?a WHERE { x:London y:isPartOf x:England . ?a y:livedIn ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ground checks") || !strings.Contains(out, "extensions") {
		t.Errorf("ground/extension info missing:\n%s", out)
	}
}
