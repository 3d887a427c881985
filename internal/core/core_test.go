package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
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

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStoreFromReader(strings.NewReader(figure1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreFromReader(t *testing.T) {
	s := newStore(t)
	if s.Graph().NumVertices() != 9 {
		t.Errorf("vertices = %d, want 9", s.Graph().NumVertices())
	}
	if s.Index() == nil || s.Index().A == nil || s.Index().S == nil || s.Index().N == nil {
		t.Fatal("indexes not built")
	}
	if s.BuildInfo().DatabaseBytes <= 0 || s.BuildInfo().IndexBytes <= 0 {
		t.Errorf("size estimates = %d / %d", s.BuildInfo().DatabaseBytes, s.BuildInfo().IndexBytes)
	}
	if s.BuildInfo().DatabaseTime < 0 || s.BuildInfo().IndexTime < 0 {
		t.Error("negative build times")
	}
}

func TestNewStoreErrors(t *testing.T) {
	if _, err := NewStoreFromReader(strings.NewReader("not rdf at all\n")); err == nil {
		t.Error("bad input accepted")
	}
	if _, err := NewStore([]rdf.Triple{{S: rdf.NewLiteral("x"), P: rdf.NewIRI("p"), O: rdf.NewIRI("o")}}); err == nil {
		t.Error("bad triple accepted")
	}
}

// prepare parses and prepares src against s with the default planner.
func prepare(t *testing.T, s *Store, src string) *PreparedQuery {
	t.Helper()
	p, err := s.PrepareQuery(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExecuteEndToEnd(t *testing.T) {
	p := prepare(t, newStore(t), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?where WHERE {
  ?who y:wasBornIn ?where .
  ?who y:diedIn ?where .
}`)
	if proj := p.Projection(); len(proj) != 2 || proj[0] != "who" || proj[1] != "where" {
		t.Fatalf("projection = %v", proj)
	}
	var rows []Solution
	if err := p.Execute(engine.Options{}, func(sol Solution) bool {
		rows = append(rows, sol)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0][0] != rdf.NewIRI("http://dbpedia.org/resource/Amy_Winehouse") ||
		rows[0][1] != rdf.NewIRI("http://dbpedia.org/resource/London") {
		t.Errorf("row = %v", rows[0])
	}
}

func TestExecuteHonoursQueryLimit(t *testing.T) {
	s := newStore(t)
	count := func(src string, opts engine.Options) int {
		n := 0
		if err := prepare(t, s, src).Execute(opts, func(Solution) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 2`, engine.Options{}); n != 2 {
		t.Errorf("rows = %d, want 2 (query LIMIT)", n)
	}
	// Options limit tighter than query limit wins.
	if n := count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 3`, engine.Options{Limit: 1}); n != 1 {
		t.Errorf("rows = %d, want 1 (options limit)", n)
	}
}

// TestCountHonoursQueryLimit is the regression test for the LIMIT fork:
// the factorized count of a plain query ignored the query's own LIMIT
// clause (returning 3 here) while the enumeration fallback honoured it.
func TestCountHonoursQueryLimit(t *testing.T) {
	s := newStore(t)
	for _, src := range []string{
		`PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 2`,
		`PREFIX y: <http://dbpedia.org/ontology/> SELECT DISTINCT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 2`,
	} {
		p := prepare(t, s, src)
		if n, err := p.Count(engine.Options{}); err != nil || n != 2 {
			t.Errorf("Count(%q) = %d, %v; want 2", src, n, err)
		}
		if n, err := p.Count(engine.Options{Limit: 1}); err != nil || n != 1 {
			t.Errorf("Count(%q, Limit 1) = %d, %v; want 1", src, n, err)
		}
	}
}

func TestExecuteSelectStar(t *testing.T) {
	p := prepare(t, newStore(t), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE { ?a y:wasMarriedTo ?b }`)
	var rows []Solution
	if err := p.Execute(engine.Options{}, func(sol Solution) bool {
		rows = append(rows, sol)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 2 || len(p.Projection()) != 2 {
		t.Fatalf("rows = %v, projection = %v", rows, p.Projection())
	}
}

func TestCountMatchesExecute(t *testing.T) {
	p := prepare(t, newStore(t), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	n, err := p.Count(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Count = %d, want 3", n)
	}
}

func TestExecuteDeadline(t *testing.T) {
	p := prepare(t, newStore(t), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	err := p.Execute(engine.Options{Deadline: time.Now().Add(-time.Second)}, func(Solution) bool { return true })
	if err != engine.ErrDeadlineExceeded {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestSizeEstimatesScale(t *testing.T) {
	small := newStore(t)
	// Double the data (new IRIs) roughly doubles the estimates.
	doubled := figure1 + strings.ReplaceAll(figure1, "x:", "x:Copy_")
	big, err := NewStoreFromReader(strings.NewReader(doubled))
	if err != nil {
		t.Fatal(err)
	}
	if big.BuildInfo().DatabaseBytes <= small.BuildInfo().DatabaseBytes {
		t.Errorf("database bytes did not grow: %d vs %d", big.BuildInfo().DatabaseBytes, small.BuildInfo().DatabaseBytes)
	}
	if big.BuildInfo().IndexBytes <= small.BuildInfo().IndexBytes {
		t.Errorf("index bytes did not grow: %d vs %d", big.BuildInfo().IndexBytes, small.BuildInfo().IndexBytes)
	}
}
