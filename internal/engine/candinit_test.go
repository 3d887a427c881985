package engine

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
	"repro/internal/workload"
)

// sigReader wraps a Reader, counts its S probes and optionally answers
// them from somewhere other than the index: the engine must not be able
// to tell (S is a superset filter, Lemma 1).
type sigReader struct {
	index.Reader
	calls atomic.Int64
	// answer, when non-nil, replaces the wrapped reader's S probe.
	answer func(q multigraph.Synopsis) []dict.VertexID
}

func (r *sigReader) SignatureCandidates(q multigraph.Synopsis) []dict.VertexID {
	r.calls.Add(1)
	if r.answer != nil {
		return r.answer(q)
	}
	return r.Reader.SignatureCandidates(q)
}

const selfP = "http://pl.example.org/ontology/self"

// filterScenario is one read path under test with its independent oracle.
type filterScenario struct {
	name     string
	r        index.Reader
	resolver dict.Resolver
	syn      []multigraph.Synopsis // merged synopsis per vertex id
	oracle   *triplestore.Store
	queries  []*sparql.Query
}

// viewSynopses computes every vertex's synopsis from the view's merged
// triple stream — independent of both the R-tree and the touched list.
func viewSynopses(tb testing.TB, v *delta.View) []multigraph.Synopsis {
	tb.Helper()
	type pair struct{ from, to dict.VertexID }
	edges := map[pair][]dict.EdgeType{}
	v.Triples(func(t rdf.Triple) bool {
		if t.O.IsLiteral() {
			return true
		}
		s, ok1 := v.LookupVertex(t.S.Value)
		o, ok2 := v.LookupVertex(t.O.Value)
		et, ok3 := v.LookupEdgeType(t.P.Value)
		if !ok1 || !ok2 || !ok3 {
			tb.Fatalf("view cannot resolve its own triple %v", t)
		}
		edges[pair{s, o}] = append(edges[pair{s, o}], et)
		return true
	})
	n := v.NumVertices()
	in, out := make([][][]dict.EdgeType, n), make([][][]dict.EdgeType, n)
	for p, ts := range edges {
		slices.Sort(ts)
		out[p.from] = append(out[p.from], ts)
		in[p.to] = append(in[p.to], ts)
	}
	syn := make([]multigraph.Synopsis, n)
	for i := range syn {
		syn[i] = multigraph.SynopsisFromMultiEdges(in[i], out[i])
	}
	return syn
}

// filterScenarios builds the same merged data twice — frozen, and as a
// base plus a non-empty overlay of adds and tombstones — with star,
// complex, multi-component and self-loop queries over it.
func filterScenarios(tb testing.TB) []filterScenario {
	tb.Helper()
	_, _, triples := skewedFixture(tb, 5)
	iri := func(s string) rdf.Term { return rdf.Term{Kind: rdf.IRI, Value: s} }
	var ents []string
	for _, t := range triples {
		if len(ents) < 24 && !t.O.IsLiteral() && !slices.Contains(ents, t.S.Value) {
			ents = append(ents, t.S.Value)
		}
	}
	for i, e := range ents {
		if i%2 == 0 {
			triples = append(triples, rdf.Triple{S: iri(e), P: iri(selfP), O: iri(e)})
		}
		triples = append(triples, rdf.Triple{S: iri(e), P: iri(selfP), O: iri(ents[(i+1)%len(ents)])})
	}

	// Overlay split: the last sixth arrives as adds, every 17th base
	// triple is tombstoned.
	cut := len(triples) * 5 / 6
	var dels, merged []rdf.Triple
	for i, t := range triples[:cut] {
		if i%17 == 0 {
			dels = append(dels, t)
		} else {
			merged = append(merged, t)
		}
	}
	adds := triples[cut:]
	merged = append(merged, adds...)

	oracle, err := triplestore.FromTriples(merged)
	if err != nil {
		tb.Fatal(err)
	}
	gen := workload.NewGenerator(merged, 11, workload.DefaultConfig())
	var queries []*sparql.Query
	queries = append(queries, gen.Workload(workload.Star, 3, 4)...)
	queries = append(queries, gen.Workload(workload.Star, 6, 4)...)
	queries = append(queries, gen.Workload(workload.Complex, 4, 4)...)
	queries = append(queries, gen.Workload(workload.Complex, 7, 4)...)
	// Multi-component: two generated queries side by side, the second's
	// variables renamed apart.
	parts := gen.Workload(workload.Complex, 3, 6)
	for i := 0; i+1 < len(parts); i += 2 {
		q := &sparql.Query{Star: true, Prefixes: &rdf.PrefixMap{}}
		q.Patterns = append(q.Patterns, parts[i].Patterns...)
		for _, p := range parts[i+1].Patterns {
			for _, t := range []*sparql.Term{&p.S, &p.O} {
				if t.Kind == sparql.Var {
					t.Value = "b" + t.Value
				}
			}
			q.Patterns = append(q.Patterns, p)
		}
		queries = append(queries, q)
	}
	for _, src := range []string{
		fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?x }`, selfP),
		fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?x . ?x <%s> ?y . ?y <%s> ?z }`, selfP, selfP, selfP),
		fmt.Sprintf(`SELECT * WHERE { ?x <%s> ?x . ?w <%s> ?v }`, selfP, selfP),
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			tb.Fatal(err)
		}
		queries = append(queries, q)
	}

	frozen, err := multigraph.FromTriples(merged)
	if err != nil {
		tb.Fatal(err)
	}
	fix := index.Build(frozen)
	baseG, err := multigraph.FromTriples(triples[:cut])
	if err != nil {
		tb.Fatal(err)
	}
	view, err := delta.NewView(baseG, index.Build(baseG)).Apply(adds, dels)
	if err != nil {
		tb.Fatal(err)
	}
	if view.Empty() {
		tb.Fatal("overlay scenario has an empty overlay")
	}
	return []filterScenario{
		{"base", index.NewReader(frozen, fix), frozen.Terms(), viewSynopses(tb, delta.NewView(frozen, fix)), oracle, queries},
		{"overlay", view, view, viewSynopses(tb, view), oracle, queries},
	}
}

// streamAll collects the embedding sequence (capped) of one run.
func streamAll(tb testing.TB, r index.Reader, p *plan.Plan) [][]dict.VertexID {
	tb.Helper()
	var seq [][]dict.VertexID
	err := Stream(r, p, Options{Limit: 400}, func(asg []dict.VertexID) bool {
		seq = append(seq, slices.Clone(asg))
		return true
	})
	if err != nil {
		tb.Fatal(err)
	}
	return seq
}

// TestSignatureFilterOnly is the S-is-only-a-filter property: the emitted
// embedding sequence is the same whether the S probe is answered by the
// index, by a brute-force dominance scan, or by every vertex there is,
// and the count agrees with the triple-store oracle.
func TestSignatureFilterOnly(t *testing.T) {
	const countCap = 5000
	for _, sc := range filterScenarios(t) {
		all := make([]dict.VertexID, len(sc.syn))
		for i := range all {
			all[i] = dict.VertexID(i)
		}
		answers := map[string]func(multigraph.Synopsis) []dict.VertexID{
			"index": nil,
			"brute": func(q multigraph.Synopsis) []dict.VertexID {
				var out []dict.VertexID
				for v, s := range sc.syn {
					if s.Dominates(q) {
						out = append(out, dict.VertexID(v))
					}
				}
				return out
			},
			"all": func(multigraph.Synopsis) []dict.VertexID { return all },
		}
		nonEmpty := 0
		for qi, q := range sc.queries {
			qg, err := query.Build(q, sc.resolver)
			if err != nil {
				t.Fatalf("%s query %d: %v", sc.name, qi, err)
			}
			p := plan.For(qg, sc.r)
			want, err := sc.oracle.Count(sc.oracle.Compile(q), triplestore.Options{Limit: countCap})
			if err != nil {
				t.Fatal(err)
			}
			ref := streamAll(t, &sigReader{Reader: sc.r}, p)
			if len(ref) > 0 {
				nonEmpty++
			}
			for name, answer := range answers {
				r := &sigReader{Reader: sc.r, answer: answer}
				if got := streamAll(t, r, p); !slices.EqualFunc(got, ref, slices.Equal[[]dict.VertexID]) {
					t.Errorf("%s query %d: S answered by %q changes the embedding sequence (%d rows vs %d)\n%s",
						sc.name, qi, name, len(got), len(ref), q)
				}
				n, err := Count(r, p, Options{Limit: countCap})
				if err != nil {
					t.Fatal(err)
				}
				if n != want {
					t.Errorf("%s query %d: S answered by %q: Count = %d, triplestore says %d\n%s",
						sc.name, qi, name, n, want, q)
				}
			}
		}
		if nonEmpty < len(sc.queries)/2 {
			t.Errorf("%s: only %d of %d queries have answers; the property is barely exercised", sc.name, nonEmpty, len(sc.queries))
		}
	}
}

// TestInitialCandidatesOnce: a Stream or Count run probes S at most once
// per component — however often Stream re-enters a component — and not
// at all for a component that is one constant-subject literal.
func TestInitialCandidatesOnce(t *testing.T) {
	for _, sc := range filterScenarios(t) {
		for qi, q := range sc.queries {
			qg, err := query.Build(q, sc.resolver)
			if err != nil {
				t.Fatal(err)
			}
			p := plan.For(qg, sc.r)
			if p.Empty {
				continue
			}
			probed := int64(0)
			for ci := range p.Components {
				if qg.Vars[p.Components[ci].Core[0]].Lit == nil {
					probed++
				}
			}
			runs := map[string]func(r index.Reader) error{
				"Stream": func(r index.Reader) error {
					return Stream(r, p, Options{Limit: 400}, func([]dict.VertexID) bool { return true })
				},
				"Count": func(r index.Reader) error {
					_, err := Count(r, p, Options{})
					return err
				},
			}
			for name, run := range runs {
				r := &sigReader{Reader: sc.r}
				if err := run(r); err != nil {
					t.Fatal(err)
				}
				if got := r.calls.Load(); got > probed {
					t.Errorf("%s query %d: %s probed S %d times for %d component(s) with a vertex to probe for\n%s",
						sc.name, qi, name, got, probed, q)
				}
			}
		}
	}
}

// TestInitialCandidatesStats: with a first component of three embeddings,
// Stream enters the second component three times, yet CandInit is computed
// — and counted — once per component: InitCandidates is Σ|CandInit| and
// each component's level 0 records one visit.
func TestInitialCandidatesStats(t *testing.T) {
	f := load(t, figure1)
	p := f.query(t, `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE {
  ?a y:livedIn ?b .
  ?c y:wasBornIn ?d .
}`)
	if len(p.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(p.Components))
	}
	want := 0
	for ci := range p.Components {
		want += len(InitialCandidates(f.rd(), p, p.Components[ci].Core[0]))
	}
	r := &sigReader{Reader: f.rd()}
	var st Stats
	rows := 0
	if err := Stream(r, p, Options{Stats: &st}, func([]dict.VertexID) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 6 {
		t.Fatalf("rows = %d, want 3 livedIn × 2 wasBornIn", rows)
	}
	if got := r.calls.Load(); got != 2 {
		t.Errorf("S probes = %d, want one per component", got)
	}
	if st.InitCandidates != want {
		t.Errorf("InitCandidates = %d, want Σ|CandInit| = %d", st.InitCandidates, want)
	}
	for _, l := range st.Levels {
		if l.Pos == 0 && l.Visits != 1 {
			t.Errorf("component %d level 0: visits = %d, want 1", l.Component, l.Visits)
		}
	}
}
