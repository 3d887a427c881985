// Package integration exercises the complete system end to end: generated
// corpora flow through the RDF parser, the multigraph builder, the index
// ensemble, the query compiler and all three engines, with the snapshot
// layer in the loop. The triple store serves as the ground-truth oracle
// throughout.
package integration

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/triplestore"
	"repro/internal/workload"
)

// corpus is a shared LUBM dataset, loaded once.
var corpus struct {
	triples []rdf.Triple
	amber   *core.Store
	oracle  *triplestore.Store
	graph   *baseline.Graph
}

func setup(t *testing.T) {
	t.Helper()
	if corpus.amber != nil {
		return
	}
	corpus.triples = datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 99, Compact: true})
	var err error
	corpus.amber, err = core.NewStore(corpus.triples)
	if err != nil {
		t.Fatal(err)
	}
	corpus.oracle, err = triplestore.FromTriples(corpus.triples)
	if err != nil {
		t.Fatal(err)
	}
	corpus.graph, err = baseline.FromTriples(corpus.triples)
	if err != nil {
		t.Fatal(err)
	}
}

// oracleCount evaluates via the permutation-index store.
func oracleCount(t *testing.T, q *sparql.Query) uint64 {
	t.Helper()
	n, err := corpus.oracle.Count(corpus.oracle.Compile(q), triplestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func amberCount(t *testing.T, q *sparql.Query) uint64 {
	t.Helper()
	qg, err := corpus.amber.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := qg.Count(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestKnownCardinalities pins down exact result counts for hand-written
// queries whose answers are structurally determined by the generator: each
// grad student has exactly one advisor who works for exactly one
// department, so the advisor-in-own-department join has at most one row
// per student, etc.
func TestKnownCardinalities(t *testing.T) {
	setup(t)
	// Count entities by role directly from the triples.
	var gradAdvisorEdges, headOfEdges int
	for _, tr := range corpus.triples {
		switch {
		case strings.HasSuffix(tr.P.Value, "#advisor"):
			gradAdvisorEdges++
		case strings.HasSuffix(tr.P.Value, "#headOf"):
			headOfEdges++
		}
	}
	q, err := sparql.Parse(`
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?s ub:advisor ?p }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := amberCount(t, q); got != uint64(gradAdvisorEdges) {
		t.Errorf("advisor count = %d, want %d (raw edges)", got, gradAdvisorEdges)
	}
	q, err = sparql.Parse(`
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?p ub:headOf ?d }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := amberCount(t, q); got != uint64(headOfEdges) {
		t.Errorf("headOf count = %d, want %d", got, headOfEdges)
	}
}

// TestWorkloadEquivalence runs generated star and complex workloads of
// several sizes through all three engines and demands identical counts.
func TestWorkloadEquivalence(t *testing.T) {
	setup(t)
	gen := workload.NewGenerator(corpus.triples, 123, workload.DefaultConfig())
	for _, kind := range []workload.Kind{workload.Star, workload.Complex} {
		for _, size := range []int{3, 6, 12} {
			for i := 0; i < 5; i++ {
				q, ok := gen.Generate(kind, size)
				if !ok {
					t.Fatalf("%v/%d: generation failed", kind, size)
				}
				want := oracleCount(t, q)
				if got := amberCount(t, q); got != want {
					t.Fatalf("%v/%d query %d: amber=%d oracle=%d\n%s", kind, size, i, got, want, q)
				}
				bl, err := corpus.graph.Count(corpus.graph.Compile(q), baseline.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if bl != want {
					t.Fatalf("%v/%d query %d: baseline=%d oracle=%d\n%s", kind, size, i, bl, want, q)
				}
				if want == 0 {
					t.Fatalf("%v/%d query %d: workload generator produced empty result", kind, size, i)
				}
			}
		}
	}
}

// TestSnapshotPreservesAnswers: a store saved and reloaded answers every
// workload query identically.
func TestSnapshotPreservesAnswers(t *testing.T) {
	setup(t)
	var buf bytes.Buffer
	if err := corpus.amber.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(corpus.triples, 77, workload.DefaultConfig())
	for i := 0; i < 8; i++ {
		q, ok := gen.Generate(workload.Star, 5)
		if !ok {
			t.Fatal("generation failed")
		}
		qa, err := corpus.amber.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := reloaded.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := qa.Count(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := qb.Count(engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("query %d: original=%d reloaded=%d\n%s", i, a, b, q)
		}
	}
}

// TestRDFRoundTripThroughPipeline: serializing the corpus to N-Triples and
// re-ingesting it reproduces the same statistics and answers.
func TestRDFRoundTripThroughPipeline(t *testing.T) {
	setup(t)
	var sb strings.Builder
	enc := rdf.NewEncoder(&sb)
	for _, tr := range corpus.triples {
		if err := enc.Encode(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStoreFromReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Graph().NumVertices() != corpus.amber.Graph().NumVertices() ||
		st.Graph().NumEdges() != corpus.amber.Graph().NumEdges() ||
		st.Graph().NumAttrs() != corpus.amber.Graph().NumAttrs() {
		t.Errorf("round-trip stats differ: V=%d/%d E=%d/%d A=%d/%d",
			st.Graph().NumVertices(), corpus.amber.Graph().NumVertices(),
			st.Graph().NumEdges(), corpus.amber.Graph().NumEdges(),
			st.Graph().NumAttrs(), corpus.amber.Graph().NumAttrs())
	}
}

// TestTimeoutHonouredUnderLoad: a sub-millisecond deadline must abort a
// heavy query quickly and report the timeout.
func TestTimeoutHonouredUnderLoad(t *testing.T) {
	setup(t)
	gen := workload.NewGenerator(corpus.triples, 55, workload.DefaultConfig())
	q, ok := gen.Generate(workload.Star, 15)
	if !ok {
		t.Skip("no large star available")
	}
	qg, err := corpus.amber.PrepareQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = qg.Count(engine.Options{Deadline: time.Now().Add(100 * time.Microsecond)})
	elapsed := time.Since(start)
	// Either it finished legitimately fast or it must report the deadline;
	// in both cases it must come back promptly.
	if err != nil && err != engine.ErrDeadlineExceeded {
		t.Fatalf("unexpected error: %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("deadline ignored: took %s", elapsed)
	}
}

// TestExtensionFragmentEndToEnd: DISTINCT/UNION/FILTER evaluated over the
// generated corpus agree with manual recomputation from the oracle rows.
func TestExtensionFragmentEndToEnd(t *testing.T) {
	setup(t)
	// All departments that anyone works for or is a member of.
	pq, err := sparql.Parse(`
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT DISTINCT ?d WHERE {
  { ?x ub:worksFor ?d } UNION { ?x ub:memberOf ?d }
}`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := corpus.amber.PrepareQuery(pq)
	if err != nil {
		t.Fatal(err)
	}
	var rows []core.Solution
	if err := p.Execute(engine.Options{}, func(sol core.Solution) bool {
		rows = append(rows, sol)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, tr := range corpus.triples {
		if strings.HasSuffix(tr.P.Value, "#worksFor") || strings.HasSuffix(tr.P.Value, "#memberOf") {
			want[tr.O.Value] = true
		}
	}
	if len(rows) != len(want) {
		t.Errorf("distinct union departments = %d, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		if !want[row[0].Value] {
			t.Errorf("unexpected department %s", row[0].Value)
		}
	}
}
