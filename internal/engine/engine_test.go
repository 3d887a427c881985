package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/obs"
	"repro/internal/plan"
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

// rd adapts the fixture to the engine's probe surface.
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

func (f *fixture) query(t *testing.T, src string) *plan.Plan {
	t.Helper()
	pq, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	qg, err := query.Build(pq, &f.g.Dicts)
	if err != nil {
		t.Fatal(err)
	}
	return plan.For(qg, f.rd())
}

// collect streams all embeddings as var-name → IRI maps.
func (f *fixture) collect(t *testing.T, p *plan.Plan, opts Options) []map[string]string {
	t.Helper()
	var out []map[string]string
	err := Stream(f.rd(), p, opts, func(asg []dict.VertexID) bool {
		m := make(map[string]string, len(asg))
		for u, v := range asg {
			m[p.Query.Vars[u].Name] = f.g.Dicts.VertexIRI(v)
		}
		out = append(out, m)
		return true
	})
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	return out
}

func TestFigure2Embeddings(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	got := f.collect(t, qg, Options{})
	if len(got) != 2 {
		t.Fatalf("embeddings = %d, want 2 (X0 ∈ {Nolan, Amy}):\n%v", len(got), got)
	}
	const res = "http://dbpedia.org/resource/"
	x0s := map[string]bool{}
	for _, emb := range got {
		x0s[emb["X0"]] = true
		if emb["X1"] != res+"London" {
			t.Errorf("X1 = %s, want London", emb["X1"])
		}
		if emb["X2"] != res+"England" {
			t.Errorf("X2 = %s, want England", emb["X2"])
		}
		if emb["X3"] != res+"Amy_Winehouse" {
			t.Errorf("X3 = %s, want Amy", emb["X3"])
		}
		if emb["X4"] != res+"WembleyStadium" {
			t.Errorf("X4 = %s", emb["X4"])
		}
		if emb["X5"] != res+"Music_Band" {
			t.Errorf("X5 = %s", emb["X5"])
		}
		if emb["X6"] != res+"Blake_Fielder-Civil" {
			t.Errorf("X6 = %s", emb["X6"])
		}
	}
	if !x0s[res+"Christopher_Nolan"] || !x0s[res+"Amy_Winehouse"] {
		t.Errorf("X0 bindings = %v", x0s)
	}
	// Count must agree.
	n, err := Count(f.rd(), qg, Options{})
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v; want 2", n, err)
	}
}

func TestStarQuery(t *testing.T) {
	f := load(t, figure1)
	// Star around ?who: born in London, died in London.
	qg := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?where WHERE {
  ?who y:wasBornIn ?where .
  ?who y:diedIn ?where .
}`)
	got := f.collect(t, qg, Options{})
	if len(got) != 1 {
		t.Fatalf("embeddings = %d, want 1", len(got))
	}
	if got[0]["who"] != "http://dbpedia.org/resource/Amy_Winehouse" {
		t.Errorf("who = %s", got[0]["who"])
	}
}

func TestHomomorphismAllowsRepeatedDataVertices(t *testing.T) {
	f := load(t, `
<http://x/a> <http://y/knows> <http://x/b> .
<http://x/b> <http://y/knows> <http://x/a> .
`)
	// Path of length 2: a→b→a is a valid homomorphic embedding with
	// ?p = ?r = a (no injectivity).
	qg := f.query(t, `SELECT * WHERE { ?p <http://y/knows> ?q . ?q <http://y/knows> ?r . }`)
	got := f.collect(t, qg, Options{})
	if len(got) != 2 {
		t.Fatalf("embeddings = %d, want 2 (a→b→a and b→a→b)", len(got))
	}
	for _, emb := range got {
		if emb["p"] != emb["r"] {
			t.Errorf("homomorphism should bind p = r: %v", emb)
		}
	}
}

func TestGroundQueries(t *testing.T) {
	f := load(t, figure1)
	// True ground pattern: exactly one empty embedding.
	qg := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE { x:London y:isPartOf x:England . }`)
	got := f.collect(t, qg, Options{})
	if len(got) != 1 {
		t.Errorf("true ground query embeddings = %d, want 1", len(got))
	}
	n, err := Count(f.rd(), qg, Options{})
	if err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}

	// False ground pattern (edge exists but not that type).
	qg = f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE { x:London y:hasCapital x:England . }`)
	if got := f.collect(t, qg, Options{}); len(got) != 0 {
		t.Errorf("false ground query embeddings = %d, want 0", len(got))
	}

	// Ground attribute that holds.
	qg = f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE { x:WembleyStadium y:hasCapacityOf "90000" . }`)
	if got := f.collect(t, qg, Options{}); len(got) != 1 {
		t.Errorf("ground attr embeddings = %d, want 1", len(got))
	}

	// Ground attribute on the wrong vertex.
	qg = f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT * WHERE { x:London y:hasCapacityOf "90000" . }`)
	if got := f.collect(t, qg, Options{}); len(got) != 0 {
		t.Errorf("wrong ground attr embeddings ≠ 0")
	}
}

func TestUnsatQuery(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:isMarriedTo ?b }`)
	if !qg.Query.Unsat {
		t.Fatal("expected unsat")
	}
	if got := f.collect(t, qg, Options{}); len(got) != 0 {
		t.Errorf("unsat query returned %d embeddings", len(got))
	}
	if n, _ := Count(f.rd(), qg, Options{}); n != 0 {
		t.Errorf("unsat Count = %d", n)
	}
}

func TestLimit(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	// Three livedIn edges exist.
	if got := f.collect(t, qg, Options{}); len(got) != 3 {
		t.Fatalf("unlimited = %d, want 3", len(got))
	}
	if got := f.collect(t, qg, Options{Limit: 2}); len(got) != 2 {
		t.Errorf("limited = %d, want 2", len(got))
	}
	if n, _ := Count(f.rd(), qg, Options{Limit: 2}); n != 2 {
		t.Errorf("Count with limit = %d, want 2", n)
	}
}

func TestYieldAbort(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, `PREFIX y: <http://dbpedia.org/ontology/> SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	calls := 0
	err := Stream(f.rd(), qg, Options{}, func([]dict.VertexID) bool {
		calls++
		return false
	})
	if err != nil || calls != 1 {
		t.Errorf("calls = %d, err = %v; want 1, nil", calls, err)
	}
}

func TestDeadline(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	opts := Options{Deadline: time.Now().Add(-time.Second)}
	err := Stream(f.rd(), qg, opts, func([]dict.VertexID) bool { return true })
	if err != ErrDeadlineExceeded {
		t.Errorf("Stream err = %v, want ErrDeadlineExceeded", err)
	}
	if _, err := Count(f.rd(), qg, opts); err != ErrDeadlineExceeded {
		t.Errorf("Count err = %v, want ErrDeadlineExceeded", err)
	}
}

func TestDisconnectedComponentsProduct(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?a y:livedIn ?b .
  ?c y:wasBornIn ?d .
}`)
	// 3 livedIn × 2 wasBornIn = 6 combined embeddings.
	got := f.collect(t, qg, Options{})
	if len(got) != 6 {
		t.Fatalf("embeddings = %d, want 6", len(got))
	}
	if n, _ := Count(f.rd(), qg, Options{}); n != 6 {
		t.Errorf("Count = %d, want 6", n)
	}
}

func TestSelfLoopQuery(t *testing.T) {
	f := load(t, `
<http://x/a> <http://y/p> <http://x/a> .
<http://x/a> <http://y/p> <http://x/b> .
<http://x/b> <http://y/p> <http://x/c> .
`)
	qg := f.query(t, `SELECT ?v WHERE { ?v <http://y/p> ?v }`)
	got := f.collect(t, qg, Options{})
	if len(got) != 1 || got[0]["v"] != "http://x/a" {
		t.Errorf("self-loop embeddings = %v, want only a", got)
	}
}

func TestIRIAnchoredQuery(t *testing.T) {
	f := load(t, figure1)
	// The Section 5.1 example: candidates for a vertex whose livedIn edge
	// targets the constant United_States.
	qg := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?who WHERE { ?who y:livedIn x:United_States . }`)
	got := f.collect(t, qg, Options{})
	if len(got) != 2 {
		t.Fatalf("embeddings = %d, want 2 (Amy, Blake)", len(got))
	}
	// Reversed anchor: constant subject.
	qg = f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?place WHERE { x:Amy_Winehouse y:wasBornIn ?place . }`)
	got = f.collect(t, qg, Options{})
	if len(got) != 1 || got[0]["place"] != "http://dbpedia.org/resource/London" {
		t.Errorf("embeddings = %v", got)
	}
}

func TestStatsPopulated(t *testing.T) {
	f := load(t, figure1)
	qg := f.query(t, figure2)
	var st Stats
	if _, err := Count(f.rd(), qg, Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Recursions == 0 || st.InitCandidates == 0 || st.SatProbes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.Embeddings != 2 {
		t.Errorf("stats embeddings = %d", st.Embeddings)
	}
}

// TestStatsLevels: a traced run records one level per core vertex, the
// visits at level 0 total one per component, and Stream and Count agree
// on the frontier sizes (they walk the same candidate sets).
func TestStatsLevels(t *testing.T) {
	f := load(t, figure1)
	p := f.query(t, figure2)
	var countSt Stats
	if _, err := Count(f.rd(), p, Options{Stats: &countSt}); err != nil {
		t.Fatal(err)
	}
	wantLevels := 0
	for ci := range p.Components {
		wantLevels += len(p.Components[ci].Core)
	}
	if len(countSt.Levels) != wantLevels {
		t.Fatalf("levels = %d, want %d", len(countSt.Levels), wantLevels)
	}
	for _, l := range countSt.Levels {
		if l.Pos == 0 && l.Visits != 1 {
			t.Errorf("component %d level 0 visits = %d, want 1", l.Component, l.Visits)
		}
		if l.Visits == 0 {
			t.Errorf("level %+v never visited", l)
		}
	}
	var streamSt Stats
	if err := Stream(f.rd(), p, Options{Stats: &streamSt}, func([]dict.VertexID) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(streamSt.Levels) != len(countSt.Levels) {
		t.Fatalf("stream levels = %d, count levels = %d", len(streamSt.Levels), len(countSt.Levels))
	}
	for i := range streamSt.Levels {
		s, c := streamSt.Levels[i], countSt.Levels[i]
		if s.Candidates != c.Candidates || s.Visits != c.Visits {
			t.Errorf("level %d: stream %+v != count %+v", i, s, c)
		}
	}
}

// ---- brute-force cross-check ------------------------------------------

// bruteForce enumerates homomorphic embeddings by unconstrained
// backtracking over all data vertices, checking every pattern directly.
// It is the ground truth for the property test.
func bruteForce(g *multigraph.Graph, qg *query.Graph) uint64 {
	if qg.Unsat {
		return 0
	}
	for _, ge := range qg.GroundEdges {
		if !g.HasEdgeTypes(ge.From, ge.To, ge.Types) {
			return 0
		}
	}
	for _, ga := range qg.GroundAttrs {
		if !g.HasAttrs(ga.V, ga.Attrs) {
			return 0
		}
	}
	n := len(qg.Vars)
	if n == 0 {
		return 1
	}
	asg := make([]dict.VertexID, n)
	var count uint64
	ok := func(u int) bool {
		uv := &qg.Vars[u]
		v := asg[u]
		if !g.HasAttrs(v, uv.Attrs) {
			return false
		}
		if len(uv.SelfTypes) > 0 && !g.HasEdgeTypes(v, v, uv.SelfTypes) {
			return false
		}
		for _, c := range uv.IRIs {
			if c.Dir == index.Incoming { // edge u → IRI
				if !g.HasEdgeTypes(v, c.DataVertex, c.Types) {
					return false
				}
			} else {
				if !g.HasEdgeTypes(c.DataVertex, v, c.Types) {
					return false
				}
			}
		}
		for _, e := range uv.Out {
			if int(e.To) < u && !g.HasEdgeTypes(v, asg[e.To], e.Types) {
				return false
			}
		}
		for _, e := range uv.In {
			if int(e.To) < u && !g.HasEdgeTypes(asg[e.To], v, e.Types) {
				return false
			}
		}
		return true
	}
	var rec func(u int)
	rec = func(u int) {
		if u == n {
			count++
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			asg[u] = dict.VertexID(v)
			if ok(u) {
				rec(u + 1)
			}
		}
	}
	rec(0)
	return count
}

// randomDataset builds a small random RDF graph.
func randomDataset(rng *rand.Rand, nV, nP, nE, nLit int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < nE; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV)))
		o := rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV)))
		p := rdf.NewIRI(fmt.Sprintf("http://y/p%d", rng.Intn(nP)))
		ts = append(ts, rdf.Triple{S: s, P: p, O: o})
	}
	for i := 0; i < nLit; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/v%d", rng.Intn(nV)))
		p := rdf.NewIRI(fmt.Sprintf("http://y/a%d", rng.Intn(3)))
		o := rdf.NewLiteral(fmt.Sprintf("%d", rng.Intn(3)))
		ts = append(ts, rdf.Triple{S: s, P: p, O: o})
	}
	return ts
}

// randomQuery builds a random connected-ish query by sampling data triples
// (guaranteeing satisfiable structure) and variabilizing endpoints.
func randomQuery(rng *rand.Rand, ts []rdf.Triple, size int) *sparql.Query {
	q := &sparql.Query{Star: true, Prefixes: &rdf.PrefixMap{}}
	varOf := map[string]string{}
	nextVar := 0
	termFor := func(iri string) sparql.Term {
		// Constant with small probability, else variable per data entity
		// (re-used across patterns to create joins).
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

// TestEngineMatchesBruteForce is the central correctness property: on random
// graphs and random queries, the engine's embedding count equals the
// brute-force homomorphism count.
func TestEngineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 120; trial++ {
		ts := randomDataset(rng, 8, 4, 18, 6)
		g, err := multigraph.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(g)
		pq := randomQuery(rng, ts, 1+rng.Intn(5))
		qg, err := query.Build(pq, &g.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(g, qg)
		pl := plan.For(qg, index.NewReader(g, ix))
		got, err := Count(index.NewReader(g, ix), pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: Count = %d, brute force = %d\nquery:\n%s", trial, got, want, pq)
		}
		// Stream must agree with Count.
		var streamed uint64
		if err := Stream(index.NewReader(g, ix), pl, Options{}, func([]dict.VertexID) bool {
			streamed++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if streamed != want {
			t.Fatalf("trial %d: streamed = %d, want %d\nquery:\n%s", trial, streamed, want, pq)
		}
	}
}

// TestStreamedEmbeddingsAreValid verifies each streamed embedding satisfies
// every query constraint directly against the data graph.
func TestStreamedEmbeddingsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		ts := randomDataset(rng, 8, 4, 20, 5)
		g, err := multigraph.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(g)
		pq := randomQuery(rng, ts, 1+rng.Intn(4))
		qg, err := query.Build(pq, &g.Dicts)
		if err != nil {
			t.Fatal(err)
		}
		err = Stream(index.NewReader(g, ix), plan.For(qg, index.NewReader(g, ix)), Options{Limit: 200}, func(asg []dict.VertexID) bool {
			for u := range qg.Vars {
				uv := &qg.Vars[u]
				if !g.HasAttrs(asg[u], uv.Attrs) {
					t.Errorf("attr violation at var %s", uv.Name)
				}
				for _, e := range uv.Out {
					if !g.HasEdgeTypes(asg[u], asg[e.To], e.Types) {
						t.Errorf("edge violation %s→%s", uv.Name, qg.Vars[e.To].Name)
					}
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	const max = ^uint64(0)
	if got := addSat(max-1, 5); got != max {
		t.Errorf("addSat overflow = %d", got)
	}
	if got := addSat(2, 3); got != 5 {
		t.Errorf("addSat = %d", got)
	}
	if got := mulSat(max/2, 3); got != max {
		t.Errorf("mulSat overflow = %d", got)
	}
	if got := mulSat(0, max); got != 0 {
		t.Errorf("mulSat zero = %d", got)
	}
	if got := mulSat(6, 7); got != 42 {
		t.Errorf("mulSat = %d", got)
	}
}

// TestMidRunDeadline exercises the periodic deadline check (not just the
// upfront one): a deadline slightly in the future must interrupt a search
// with a large embedding space.
func TestMidRunDeadline(t *testing.T) {
	// A dense bipartite graph: ?a p ?b . ?c p ?d gives |E|² embeddings.
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			fmt.Fprintf(&sb, "<http://x/l%d> <http://y/p> <http://x/r%d> .\n", i, j)
		}
	}
	f := load(t, sb.String())
	qg := f.query(t, `SELECT * WHERE {
  ?a <http://y/p> ?b . ?c <http://y/p> ?d . ?e <http://y/p> ?g .
}`)
	start := time.Now()
	err := Stream(f.rd(), qg, Options{Deadline: time.Now().Add(5 * time.Millisecond)},
		func([]dict.VertexID) bool { return true })
	elapsed := time.Since(start)
	if err != ErrDeadlineExceeded {
		t.Fatalf("err = %v, want mid-run deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline far overshot: %s", elapsed)
	}
}

// TestLimitDuringSatelliteEnumeration: the limit must interrupt a large
// Cartesian product of satellite sets, which Count never enumerates.
func TestLimitDuringSatelliteEnumeration(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "<http://x/hub> <http://y/p> <http://x/s%d> .\n", i)
		fmt.Fprintf(&sb, "<http://x/hub> <http://y/q> <http://x/t%d> .\n", i)
	}
	f := load(t, sb.String())
	qg := f.query(t, `SELECT * WHERE {
  ?hub <http://y/p> ?x .
  ?hub <http://y/q> ?y .
}`)
	// 40×40 = 1600 embeddings; limit 7 must stop inside the product.
	var got int
	if err := Stream(f.rd(), qg, Options{Limit: 7}, func([]dict.VertexID) bool {
		got++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("limited stream = %d, want 7", got)
	}
	// Count must report the full product regardless, and factorized: it
	// multiplies the satellite set sizes at the core leaf, so its search
	// visits the one hub candidate, not the 1600 combinations.
	meter := obs.NewResourceMeter()
	if n, err := Count(f.rd(), qg, Options{Meter: meter}); err != nil || n != 1600 {
		t.Errorf("Count = %d, %v; want 1600", n, err)
	}
	if v := meter.Visits(); v == 0 || v > 16 {
		t.Errorf("Count took %d search steps; the factorized count takes a handful, enumeration 1600+", v)
	}
}

// TestCountDeadlineMidRun: a deadline that expires while Count's core
// search is running aborts it. Every vertex of a 4-clique query is a core
// vertex, and over 60 mutually linked data vertices the search has
// 60·59·58·57 ≈ 11.7M core solutions, far more than fit in the deadline.
func TestCountDeadlineMidRun(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			if i != j {
				fmt.Fprintf(&sb, "<http://v/%d> <http://p/t> <http://v/%d> .\n", i, j)
			}
		}
	}
	f := load(t, sb.String())
	p := f.query(t, `SELECT * WHERE {
  ?a <http://p/t> ?b . ?a <http://p/t> ?c . ?a <http://p/t> ?d .
  ?b <http://p/t> ?c . ?b <http://p/t> ?d . ?c <http://p/t> ?d .
}`)
	start := time.Now()
	_, err := Count(f.rd(), p, Options{Deadline: time.Now().Add(5 * time.Millisecond)})
	elapsed := time.Since(start)
	if err != ErrDeadlineExceeded {
		t.Fatalf("err = %v, want mid-run deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline far overshot: %s", elapsed)
	}
}

// TestLiteralSatelliteStream: a single-occurrence object variable binds
// literal attributes (encoded bindings) and, for mixed predicates, the
// vertex neighbours too; Count factorizes over them like any satellite.
func TestLiteralSatelliteStream(t *testing.T) {
	f := load(t, `
<http://x/b> <http://p/mixed> <http://x/a> .
<http://x/b> <http://p/mixed> "both" .
<http://x/b> <http://p/name> "Bea" .
`)
	p := f.query(t, `SELECT ?v WHERE { ?s <http://p/mixed> ?v }`)
	var verts, lits int
	err := Stream(f.rd(), p, Options{}, func(asg []dict.VertexID) bool {
		u := p.Query.VarIndex["v"]
		if dict.IsAttrBinding(asg[u]) {
			a := f.g.Dicts.Attr(dict.AttrBinding(asg[u]))
			if a.Lexical != "both" {
				t.Errorf("literal binding = %+v", a)
			}
			lits++
		} else {
			verts++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if verts != 1 || lits != 1 {
		t.Errorf("mixed satellite: %d vertex + %d literal bindings, want 1+1", verts, lits)
	}
	n, err := Count(f.rd(), p, Options{})
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v; want 2", n, err)
	}
}

// TestContextCancellationAborts: cancelling Options.Ctx mid-search stops
// the enumeration within the polling interval and reports ctx.Err().
func TestContextCancellationAborts(t *testing.T) {
	// A 3-clique-ish dense graph with plenty of embeddings to enumerate.
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			if i != j {
				fmt.Fprintf(&sb, "<http://v/%d> <http://p/t> <http://v/%d> .\n", i, j)
			}
		}
	}
	f := load(t, sb.String())
	p := f.query(t, `SELECT ?a ?b ?c WHERE {
		?a <http://p/t> ?b . ?b <http://p/t> ?c . ?c <http://p/t> ?a .
	}`)
	ctx, cancel := context.WithCancel(context.Background())
	var yielded int
	err := Stream(f.rd(), p, Options{Ctx: ctx}, func([]dict.VertexID) bool {
		yielded++
		if yielded == 1 {
			cancel()
		}
		return true
	})
	if err != context.Canceled {
		t.Fatalf("Stream err = %v, want context.Canceled", err)
	}
	// The full result set is ~40·39·38 ≈ 59k embeddings; cancellation must
	// stop within one polling interval of the first yield.
	if yielded > 1000 {
		t.Errorf("yielded %d embeddings after cancellation", yielded)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := Count(f.rd(), p, Options{Ctx: ctx2}); err != context.Canceled {
		t.Errorf("pre-cancelled Count err = %v", err)
	}
}
