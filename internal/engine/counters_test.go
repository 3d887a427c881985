package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/workload"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/counters.golden")

// counterScenario is one read path the counters are pinned on.
type counterScenario struct {
	name     string
	r        index.Reader
	resolver dict.Resolver
}

// counterScenarios builds a seeded LUBM corpus twice — frozen, and as a
// base plus a non-empty overlay of adds and tombstones — with generated
// star and complex queries and a few handwritten ones over the merged
// data.
func counterScenarios(tb testing.TB) ([]*sparql.Query, []counterScenario) {
	tb.Helper()
	triples := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 38, Compact: true})
	cut := len(triples) * 5 / 6
	var dels, base, merged []rdf.Triple
	base = triples[:cut]
	for i, t := range base {
		if i%17 == 0 {
			dels = append(dels, t)
		} else {
			merged = append(merged, t)
		}
	}
	adds := triples[cut:]
	merged = append(merged, adds...)

	gen := workload.NewGenerator(merged, 38, workload.DefaultConfig())
	var queries []*sparql.Query
	for _, w := range []struct {
		kind workload.Kind
		size int
	}{{workload.Star, 3}, {workload.Star, 6}, {workload.Complex, 4}, {workload.Complex, 7}} {
		queries = append(queries, gen.Workload(w.kind, w.size, 3)...)
	}
	// Unanchored multi-level, literal-satellite, two-component, ground
	// and unsatisfiable queries: the generated ones are mostly one level.
	g := merged[0]
	for _, src := range []string{
		`SELECT * WHERE { ?s ub:advisor ?p . ?p ub:teacherOf ?c . ?s ub:takesCourse ?c . }`,
		`SELECT * WHERE { ?s ub:memberOf ?d . ?d ub:subOrganizationOf ?u . ?p ub:worksFor ?d . ?s ub:name ?n . }`,
		`SELECT * WHERE { ?p ub:teacherOf ?c . ?s ub:takesCourse ?c . ?p ub:emailAddress ?e . ?s ub:advisor ?a . ?a ub:worksFor ?d . }`,
		`SELECT * WHERE { ?s ub:advisor ?p . ?p ub:headOf ?d . ?x ub:memberOf ?d . ?x ub:takesCourse ?c . ?q ub:teacherOf ?c . }`,
		`SELECT * WHERE { ?s ub:advisor ?p . ?c ub:subOrganizationOf ?u . }`,
		fmt.Sprintf(`SELECT * WHERE { <%s> <%s> %s . }`, g.S.Value, g.P.Value, g.O),
		`SELECT * WHERE { ?s ub:advisor ?p . ?p ub:noSuchPredicate ?c . }`,
	} {
		q, err := sparql.Parse("PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n" + src)
		if err != nil {
			tb.Fatal(err)
		}
		queries = append(queries, q)
	}

	frozen, err := multigraph.FromTriples(merged)
	if err != nil {
		tb.Fatal(err)
	}
	baseG, err := multigraph.FromTriples(base)
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
	return queries, []counterScenario{
		{"base", index.NewReader(frozen, index.Build(frozen)), frozen.Terms()},
		{"overlay", view, view},
	}
}

// renderCounters is one run's effort counters as a golden line: the
// Stats scalars, the meter's engine counters and progress, and each
// level's candidates/visits.
func renderCounters(st *Stats, mv obs.MeterView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "init=%d rec=%d sat=%d emb=%d", st.InitCandidates, st.Recursions, st.SatProbes, st.Embeddings)
	fmt.Fprintf(&b, " cand=%d visits=%d inters=%d probes=%d progress=%d/%d",
		mv.Candidates, mv.VerticesVisited, mv.Intersections, mv.OverlayProbes, mv.Level, mv.TotalLevels)
	b.WriteString(" levels=")
	for i, l := range st.Levels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d/%d", l.Candidates, l.Visits)
	}
	return b.String()
}

// TestCountersPinned pins every effort counter of Stream and Count — the
// Stats a caller reads and the deltas the resource meter receives — over
// a fixed seeded workload on the base and on an overlay reader. Any
// change to how the match loop counts shows up as a golden diff.
func TestCountersPinned(t *testing.T) {
	queries, scenarios := counterScenarios(t)
	var got strings.Builder
	for _, sc := range scenarios {
		for qi, q := range queries {
			qg, err := query.Build(q, sc.resolver)
			if err != nil {
				t.Fatalf("%s query %d: %v", sc.name, qi, err)
			}
			p := plan.For(qg, sc.r)
			runs := []struct {
				mode string
				run  func(Options) error
			}{
				{"stream", func(o Options) error {
					return Stream(sc.r, p, o, func([]dict.VertexID) bool { return true })
				}},
				{"count", func(o Options) error {
					_, err := Count(sc.r, p, o)
					return err
				}},
			}
			for _, r := range runs {
				var st Stats
				meter := obs.NewResourceMeter()
				if err := r.run(Options{Limit: 500, Stats: &st, Meter: meter}); err != nil {
					t.Fatalf("%s query %d %s: %v", sc.name, qi, r.mode, err)
				}
				fmt.Fprintf(&got, "%s q%02d %s %s\n", sc.name, qi, r.mode, renderCounters(&st, meter.View()))
			}
		}
	}

	path := filepath.Join("testdata", "counters.golden")
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d counter lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
