package amber

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdf"
)

// countQ counts rows of a query, failing the test on error.
func countQ(t *testing.T, db *DB, q string) int {
	t.Helper()
	rows, err := collect(db.All(t.Context(), q, nil))
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return len(rows)
}

func TestUpdateInsertDelete(t *testing.T) {
	db := openDB(t)
	q := `SELECT ?w WHERE { ?w <http://dbpedia.org/ontology/livedIn> <http://dbpedia.org/resource/United_States> . }`
	if n := countQ(t, db, q); n != 2 {
		t.Fatalf("baseline = %d, want 2", n)
	}
	err := db.Update(`PREFIX y: <http://dbpedia.org/ontology/>
		PREFIX x: <http://dbpedia.org/resource/>
		INSERT DATA { x:Christopher_Nolan y:livedIn x:United_States . }`)
	if err != nil {
		t.Fatal(err)
	}
	// Read-your-writes: visible immediately after Update returns.
	if n := countQ(t, db, q); n != 3 {
		t.Fatalf("after insert = %d, want 3", n)
	}
	if ep := db.Epoch(); ep == 0 {
		t.Error("epoch did not advance")
	}
	err = db.Update(`PREFIX y: <http://dbpedia.org/ontology/>
		PREFIX x: <http://dbpedia.org/resource/>
		DELETE DATA {
			x:Christopher_Nolan y:livedIn x:United_States .
			x:Amy_Winehouse y:livedIn x:United_States .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if n := countQ(t, db, q); n != 1 {
		t.Fatalf("after delete = %d, want 1", n)
	}
	gen := db.Generation()
	if gen.DeltaAdds == 0 && gen.DeltaTombstones == 0 {
		t.Errorf("generation shows no delta: %+v", gen)
	}
	if gen.Updates != 2 {
		t.Errorf("updates = %d, want 2", gen.Updates)
	}
}

func TestUpdateNewEntities(t *testing.T) {
	db := openDB(t)
	err := db.Update(`INSERT DATA {
		<http://new/p1> <http://new/follows> <http://new/p2> .
		<http://new/p2> <http://new/follows> <http://new/p3> .
		<http://new/p1> <http://new/name> "uno" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-hop query entirely over overlay-new vertices and predicates.
	rows, err := collect(db.All(t.Context(), `SELECT ?a ?c WHERE {
		?a <http://new/follows> ?b .
		?b <http://new/follows> ?c .
	}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["a"].Value != "http://new/p1" || rows[0]["c"].Value != "http://new/p3" {
		t.Fatalf("rows = %v", rows)
	}
	// Attribute on a new vertex via the overlay A index.
	if n := countQ(t, db, `SELECT ?x WHERE { ?x <http://new/name> "uno" . }`); n != 1 {
		t.Fatalf("attr query = %d, want 1", n)
	}
}

func TestUpdateClearAndLoad(t *testing.T) {
	db := openDB(t)
	if err := db.Update(`CLEAR ALL`); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Triples != 0 || st.Vertices != 0 {
		t.Fatalf("after CLEAR: %+v", st)
	}
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, []byte(figure1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(fmt.Sprintf("LOAD <file://%s>", path)); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Triples != 16 {
		t.Fatalf("after LOAD: triples = %d, want 16", st.Triples)
	}
	if err := db.Update(`LOAD <file:///no/such/file.nt>`); err == nil {
		t.Error("LOAD of missing file succeeded")
	}
	if err := db.Update(`LOAD SILENT <file:///no/such/file.nt>`); err != nil {
		t.Errorf("LOAD SILENT surfaced error: %v", err)
	}
}

func TestMutateAndPreparedRevalidation(t *testing.T) {
	db := openDB(t)
	q := `SELECT ?w WHERE { ?w <http://dbpedia.org/ontology/wasBornIn> <http://dbpedia.org/resource/London> . }`
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(p.All(t.Context(), nil))
	if err != nil || len(rows) != 2 {
		t.Fatalf("prepared baseline = %d rows, err %v", len(rows), err)
	}
	// Mutate after preparation: the prepared handle must see the change.
	err = db.Mutate([]rdf.Triple{{
		S: rdf.NewIRI("http://x/NewPerson"),
		P: rdf.NewIRI("http://dbpedia.org/ontology/wasBornIn"),
		O: rdf.NewIRI("http://dbpedia.org/resource/London"),
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err = collect(p.All(t.Context(), nil))
	if err != nil || len(rows) != 3 {
		t.Fatalf("prepared after mutate = %d rows, err %v", len(rows), err)
	}
	n, err := p.Count(nil)
	if err != nil || n != 3 {
		t.Fatalf("prepared count = %d, err %v", n, err)
	}
}

func TestCompactionPreservesAnswers(t *testing.T) {
	db := openDB(t)
	db.SetCompactThreshold(-1) // manual compaction only
	if err := db.Update(`INSERT DATA {
		<http://x/n1> <http://p/e> <http://x/n2> .
		<http://x/n2> <http://p/e> <http://x/n3> .
	}`); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(`PREFIX y: <http://dbpedia.org/ontology/>
		PREFIX x: <http://dbpedia.org/resource/>
		DELETE DATA { x:Amy_Winehouse y:wasBornIn x:London . }`); err != nil {
		t.Fatal(err)
	}
	q1 := `SELECT ?a ?b WHERE { ?a <http://p/e> ?b . }`
	q2 := `SELECT ?w WHERE { ?w <http://dbpedia.org/ontology/wasBornIn> <http://dbpedia.org/resource/London> . }`
	before1, before2 := countQ(t, db, q1), countQ(t, db, q2)
	genBefore := db.Generation()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	genAfter := db.Generation()
	if genAfter.Generation != genBefore.Generation+1 {
		t.Errorf("generation = %d, want %d", genAfter.Generation, genBefore.Generation+1)
	}
	if genAfter.DeltaAdds != 0 || genAfter.DeltaTombstones != 0 {
		t.Errorf("delta not folded: %+v", genAfter)
	}
	if genAfter.Compactions != genBefore.Compactions+1 || genAfter.LastCompaction <= 0 {
		t.Errorf("compaction counters: %+v", genAfter)
	}
	if after1, after2 := countQ(t, db, q1), countQ(t, db, q2); after1 != before1 || after2 != before2 {
		t.Errorf("answers changed across compaction: (%d,%d) vs (%d,%d)", after1, after2, before1, before2)
	}
}

// TestPlannerStatsRefreshOnCompaction checks the acceptance criterion:
// after updates skew the data, compaction refreshes index.Cardinalities
// so Explain's estimates reflect the new generation.
func TestPlannerStatsRefreshOnCompaction(t *testing.T) {
	db := openDB(t)
	db.SetCompactThreshold(-1)
	// Insert a hub: 200 edges of a brand-new predicate.
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<http://skew/s%d> <http://skew/p> <http://skew/hub> .\n", i)
	}
	b.WriteString("}")
	if err := db.Update(b.String()); err != nil {
		t.Fatal(err)
	}
	q := `SELECT ?s WHERE { ?s <http://skew/p> <http://skew/hub> . }`
	// Pre-compaction: the base statistics know nothing about the new
	// predicate; correctness must hold regardless.
	if n := countQ(t, db, q); n != 200 {
		t.Fatalf("pre-compaction rows = %d, want 200", n)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := countQ(t, db, q); n != 200 {
		t.Fatalf("post-compaction rows = %d, want 200", n)
	}
	out, err := db.ExplainPlanner(q, "")
	if err != nil {
		t.Fatal(err)
	}
	// The cost planner's standalone estimate for ?s is the new
	// generation's per-type vertex count: exactly 200.
	if !strings.Contains(out, "est=200") {
		t.Errorf("explain estimate does not reflect refreshed statistics:\n%s", out)
	}
	if !strings.Contains(out, "actual=200") {
		t.Errorf("explain actual missing:\n%s", out)
	}
}

// TestSnapshotRoundTripUnderMutation is the satellite property test:
// Save after a random update sequence must persist the merged view, and
// OpenSnapshot of it must answer identically to the live store.
func TestSnapshotRoundTripUnderMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	uri := func(k string, n int) string { return fmt.Sprintf("http://%s/%d", k, n) }
	probe := func(db *DB, p string) []string {
		rows, err := collect(db.All(t.Context(),
			fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <%s> ?b . }`, p), nil))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, r["a"].Value+"→"+r["b"].Value)
		}
		sort.Strings(out)
		return out
	}
	for trial := 0; trial < 10; trial++ {
		db := openDB(t)
		db.SetCompactThreshold(64) // force compactions mid-sequence
		for batch := 0; batch < 8; batch++ {
			var adds, dels []rdf.Triple
			for i := 0; i < 30; i++ {
				tr := rdf.Triple{
					S: rdf.NewIRI(uri("v", rng.Intn(12))),
					P: rdf.NewIRI(uri("p", rng.Intn(3))),
					O: rdf.NewIRI(uri("v", rng.Intn(12))),
				}
				if rng.Intn(3) == 0 {
					tr.O = rdf.NewLiteral(fmt.Sprint(rng.Intn(5)))
				}
				if rng.Intn(3) == 0 {
					dels = append(dels, tr)
				} else {
					adds = append(adds, tr)
				}
			}
			if err := db.Mutate(adds, dels); err != nil {
				t.Fatal(err)
			}
		}
		db.WaitCompaction()

		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ls, ds := loaded.Stats(), db.Stats(); ls.Triples != ds.Triples || ls.Vertices != ds.Vertices {
			t.Fatalf("trial %d: snapshot stats %+v != live %+v", trial, ls, ds)
		}
		for pi := 0; pi < 3; pi++ {
			p := uri("p", pi)
			if live, snap := probe(db, p), probe(loaded, p); !reflect.DeepEqual(live, snap) {
				t.Fatalf("trial %d: predicate %s: live %v != snapshot %v", trial, p, live, snap)
			}
		}
	}
}

// TestConcurrentTorture is the acceptance torture test: reader
// goroutines stream queries while writers apply INSERT/DELETE DATA and
// compaction fires; every reader must observe a consistent snapshot, and
// the post-quiesce counts must equal a from-scratch rebuild of the same
// triple set. Run it under -race.
func TestConcurrentTorture(t *testing.T) {
	db := openDB(t)
	db.SetCompactThreshold(200) // small threshold so compaction fires mid-run

	const (
		writers          = 4
		readers          = 6
		batchesPerWriter = 25
		batchSize        = 10
	)
	// Each writer owns a disjoint key space: inserts a chain batch, then
	// deletes every second batch it wrote — so the final state is exactly
	// reproducible.
	finalTriples := make([][]rdf.Triple, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kept []rdf.Triple
			for bi := 0; bi < batchesPerWriter; bi++ {
				batch := make([]rdf.Triple, 0, batchSize)
				for i := 0; i < batchSize; i++ {
					batch = append(batch, rdf.Triple{
						S: rdf.NewIRI(fmt.Sprintf("http://t/w%d-b%d-s%d", w, bi, i)),
						P: rdf.NewIRI("http://t/edge"),
						O: rdf.NewIRI(fmt.Sprintf("http://t/w%d-b%d-o%d", w, bi, i)),
					})
				}
				if err := db.Mutate(batch, nil); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if bi%2 == 1 {
					if err := db.Mutate(nil, batch); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
				} else {
					kept = append(kept, batch...)
				}
			}
			finalTriples[w] = kept
		}(w)
	}

	// Readers: the chain query joins subjects to objects through the
	// shared predicate; a torn batch would surface as a partial count
	// (counts must always be a multiple of batchSize since batches land
	// atomically).
	stop := make(chan struct{})
	var rg sync.WaitGroup
	q := `SELECT ?s ?o WHERE { ?s <http://t/edge> ?o . }`
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := collect(db.All(t.Context(), q, nil))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(rows)%batchSize != 0 {
					t.Errorf("reader %d: observed torn batch: %d rows", r, len(rows))
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	rg.Wait()
	db.WaitCompaction()

	if db.Generation().Compactions == 0 {
		t.Error("no compaction fired during the torture run")
	}

	// Post-quiesce: counts equal a from-scratch rebuild of figure1 plus
	// every kept batch.
	var rebuilt []rdf.Triple
	base, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt = append(rebuilt, base...)
	for _, kept := range finalTriples {
		rebuilt = append(rebuilt, kept...)
	}
	fresh, err := Open(strings.NewReader(triplesToNT(rebuilt)))
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{
		q,
		`SELECT ?w WHERE { ?w <http://dbpedia.org/ontology/wasBornIn> <http://dbpedia.org/resource/London> . }`,
	} {
		liveN, err := db.Count(query, nil)
		if err != nil {
			t.Fatal(err)
		}
		freshN, err := fresh.Count(query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if liveN != freshN {
			t.Errorf("count(%s): live %d != rebuilt %d", query, liveN, freshN)
		}
	}
	if ls, fs := db.Stats(), fresh.Stats(); ls.Triples != fs.Triples {
		t.Errorf("triples: live %d != rebuilt %d", ls.Triples, fs.Triples)
	}
}

// triplesToNT renders triples as N-Triples text.
func triplesToNT(ts []rdf.Triple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
