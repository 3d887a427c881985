package plan_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// FuzzPlan drives the whole untrusted-input path the server exposes:
// parse → translate → plan (both planners) → count. It must never panic,
// both planners' orders must be permutations of the component core, and
// their counts must agree — the planner-equivalence property under
// adversarial queries rather than generated workloads.
func FuzzPlan(f *testing.F) {
	const data = `
<http://x/a> <http://y/p> <http://x/b> .
<http://x/b> <http://y/p> <http://x/c> .
<http://x/b> <http://y/q> <http://x/a> .
<http://x/a> <http://y/q> <http://x/a> .
<http://x/c> <http://y/name> "c" .
<http://x/a> <http://y/name> "a" .
`
	triples, err := rdf.ParseString(data)
	if err != nil {
		f.Fatal(err)
	}
	g, err := multigraph.FromTriples(triples)
	if err != nil {
		f.Fatal(err)
	}
	ix := index.Build(g)

	seeds := []string{
		"SELECT * WHERE { ?s <http://y/p> ?o }",
		"SELECT * WHERE { ?s <http://y/p> ?o . ?o <http://y/p> ?t . ?o <http://y/q> ?s . }",
		`SELECT ?s WHERE { ?s <http://y/name> "a" . ?s <http://y/q> ?s . }`,
		"SELECT * WHERE { <http://x/a> <http://y/p> <http://x/b> . }",
		"SELECT * WHERE { ?a <http://y/p> ?b . ?c <http://y/q> ?d . }",
		"SELECT * WHERE { ?a <http://y/nosuch> ?b . }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pq, err := sparql.Parse(src)
		if err != nil {
			return
		}
		qg, err := query.Build(pq, g.Terms())
		if err != nil {
			return
		}
		var counts [2]uint64
		for i, pl := range []plan.Planner{plan.CostBased(), plan.Heuristic()} {
			p := pl.Plan(qg, index.NewReader(g, ix))
			if len(p.Components) != len(qg.Components) {
				t.Fatalf("%s: %d component plans for %d components", pl.Name(), len(p.Components), len(qg.Components))
			}
			for ci := range p.Components {
				cp, qc := &p.Components[ci], &qg.Components[ci]
				if len(cp.Core) != len(qc.Core) || len(cp.Estimates) != len(cp.Core) {
					t.Fatalf("%s: component %d order/estimate size mismatch", pl.Name(), ci)
				}
				seen := map[query.VertexID]bool{}
				for _, u := range cp.Core {
					if seen[u] {
						t.Fatalf("%s: vertex repeated in order", pl.Name())
					}
					seen[u] = true
				}
				for _, u := range qc.Core {
					if !seen[u] {
						t.Fatalf("%s: core vertex missing from order", pl.Name())
					}
				}
			}
			n, err := engine.Count(index.NewReader(g, ix), p, engine.Options{Limit: 10000})
			if err != nil {
				t.Fatalf("%s: count: %v", pl.Name(), err)
			}
			counts[i] = n
		}
		if counts[0] != counts[1] {
			t.Fatalf("planner counts differ: cost=%d heuristic=%d\nquery: %s", counts[0], counts[1], src)
		}
	})
}
