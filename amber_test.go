package amber

import (
	"context"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
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

// collect drains a query's solutions into name → Term maps (Binding.Map),
// stopping at the first error. An unbound variable is absent from its
// map, so its Value reads as "".
func collect(seq iter.Seq2[Binding, error]) ([]map[string]Term, error) {
	var rows []map[string]Term
	for b, err := range seq {
		if err != nil {
			return rows, err
		}
		rows = append(rows, b.Map())
	}
	return rows, nil
}

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := OpenString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenAndStats(t *testing.T) {
	db := openDB(t)
	st := db.Stats()
	if st.Triples != 16 || st.Vertices != 9 || st.Edges != 12 || st.EdgeTypes != 9 || st.Attributes != 3 {
		t.Errorf("Stats = %+v", st)
	}
	if st.DatabaseBytes <= 0 || st.IndexBytes <= 0 {
		t.Error("size estimates missing")
	}
}

func TestOpenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, []byte(figure1), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Stats().Triples != 16 {
		t.Error("file load incomplete")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := OpenString("this is not RDF\n"); err == nil {
		t.Error("garbage input accepted")
	}
}

func TestQuery(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?where WHERE {
  ?who y:wasBornIn ?where .
  ?who y:diedIn ?where .
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0]["who"].Value != "http://dbpedia.org/resource/Amy_Winehouse" {
		t.Errorf("who = %q", rows[0]["who"].Value)
	}
	if rows[0]["where"].Value != "http://dbpedia.org/resource/London" {
		t.Errorf("where = %q", rows[0]["where"].Value)
	}
}

// TestEscapedLiteralLoadThenQuery: literals loaded with a \u escape and
// with an ECHAR the grammars share are matched by SPARQL queries and
// INSERT DATA written with the same escapes, and an escape naming no
// Unicode scalar value is rejected by both parsers.
func TestEscapedLiteralLoadThenQuery(t *testing.T) {
	db, err := OpenString(`<http://x/shop> <http://y/name> "caf\u00e9" .
<http://x/bell> <http://y/name> "ding\bdong" .
`)
	if err != nil {
		t.Fatal(err)
	}
	count := func(lit string) uint64 {
		t.Helper()
		n, err := db.Count(`SELECT ?s WHERE { ?s <http://y/name> `+lit+` . }`, nil)
		if err != nil {
			t.Fatalf("query for %s: %v", lit, err)
		}
		return n
	}
	for lit, want := range map[string]uint64{`"caf\u00e9"`: 1, `"café"`: 1, `"caf\U000000E9"`: 1, `"ding\bdong"`: 1, `"ding\u0008dong"`: 1} {
		if n := count(lit); n != want {
			t.Errorf("%s matched %d, want %d", lit, n, want)
		}
	}
	if err := db.Update(`INSERT DATA { <http://x/bar> <http://y/name> "caf\u00E9" . }`); err != nil {
		t.Fatal(err)
	}
	if n := count(`"café"`); n != 2 {
		t.Errorf("after INSERT DATA, café matched %d, want 2", n)
	}
	if err := db.Update(`INSERT DATA { <http://x/bad> <http://y/name> "\uD800" . }`); err == nil {
		t.Error("INSERT DATA of a surrogate escape accepted")
	}
	if _, err := OpenString(`<http://x/bad> <http://y/name> "\U00110000" .` + "\n"); err == nil {
		t.Error("loading an escape past U+10FFFF accepted")
	}
}

func TestQueryIterEarlyStop(t *testing.T) {
	db := openDB(t)
	n := 0
	for _, err := range db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`, nil) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Errorf("n = %d, want 1", n)
	}
}

func TestCount(t *testing.T) {
	db := openDB(t)
	n, err := db.Count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE { ?a y:livedIn ?b }`, nil)
	if err != nil || n != 3 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestLimits(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`, &QueryOptions{Limit: 2}))
	if err != nil || len(rows) != 2 {
		t.Errorf("rows = %d, %v", len(rows), err)
	}
	rows, err = collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 1`, &QueryOptions{Limit: 5}))
	if err != nil || len(rows) != 1 {
		t.Errorf("query LIMIT rows = %d, %v", len(rows), err)
	}
}

func TestTimeout(t *testing.T) {
	db := openDB(t)
	_, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`, &QueryOptions{Timeout: -time.Second}))
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestQueryParseError(t *testing.T) {
	db := openDB(t)
	if _, err := collect(db.All(t.Context(), `SELEKT nonsense`, nil)); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := db.Count(`SELEKT nonsense`, nil); err == nil {
		t.Error("parse error not surfaced by Count")
	}
}

func TestNoResults(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?who WHERE { ?who y:wasBornIn x:United_States }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %v, want none", rows)
	}
}

func TestConcurrentReaders(t *testing.T) {
	db := openDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`, nil))
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestWithPrefixes(t *testing.T) {
	db := openDB(t).WithPrefixes(map[string]string{
		"y": "http://dbpedia.org/ontology/",
		"x": "http://dbpedia.org/resource/",
	})
	// No PREFIX declarations needed.
	rows, err := collect(db.All(t.Context(), `SELECT ?who WHERE { ?who y:livedIn x:United_States }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rows))
	}
	// In-query declarations override defaults.
	rows, err = collect(db.All(t.Context(), `
PREFIX y: <http://nowhere.example/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("override rows = %d, want 0 (unknown namespace)", len(rows))
	}
	// The original handle is unaffected.
	orig := openDB(t)
	if _, err := collect(orig.All(t.Context(), `SELECT ?who WHERE { ?who y:livedIn x:United_States }`, nil)); err == nil {
		t.Error("unbound prefix accepted on original handle")
	}
}

func TestPrepared(t *testing.T) {
	db := openDB(t)
	p, err := db.Prepare(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?where WHERE {
  ?who y:wasBornIn ?where .
  ?who y:diedIn ?where .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if proj := p.Projection(); len(proj) != 2 || proj[0] != "who" || proj[1] != "where" {
		t.Errorf("Projection = %v", proj)
	}
	// Executing the same plan repeatedly with different options yields
	// consistent results.
	for i := 0; i < 3; i++ {
		rows, err := collect(p.All(t.Context(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0]["who"].Value != "http://dbpedia.org/resource/Amy_Winehouse" {
			t.Errorf("run %d: rows = %v", i, rows)
		}
	}
	n, err := p.Count(t.Context(), nil)
	if err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}
	if _, err := collect(p.All(t.Context(), &QueryOptions{Timeout: -time.Second})); err != ErrTimeout {
		t.Errorf("timeout err = %v, want ErrTimeout", err)
	}
}

func TestPreparedLimitAndCount(t *testing.T) {
	db := openDB(t)
	p, err := db.Prepare(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	// The query's LIMIT and the options' limit compose: tighter wins.
	rows, err := collect(p.All(t.Context(), &QueryOptions{Limit: 5}))
	if err != nil || len(rows) != 2 {
		t.Errorf("rows = %d, %v; want 2", len(rows), err)
	}
	rows, err = collect(p.All(t.Context(), &QueryOptions{Limit: 1}))
	if err != nil || len(rows) != 1 {
		t.Errorf("rows = %d, %v; want 1", len(rows), err)
	}
	n, err := p.Count(t.Context(), nil)
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v; want 2", n, err)
	}
}

// TestPreparedCountCancelled: Count polls its ctx like All, so a caller's
// cancellation reaches the engine.
func TestPreparedCountCancelled(t *testing.T) {
	db := openDB(t)
	p, err := db.Prepare(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if n, err := p.Count(ctx, nil); err != context.Canceled {
		t.Errorf("pre-cancelled Count = %d, %v; want context.Canceled", n, err)
	}
}

func TestPreparedConcurrent(t *testing.T) {
	db := openDB(t)
	p, err := db.Prepare(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := collect(p.All(t.Context(), nil))
			if err != nil {
				errs <- err
				return
			}
			if len(rows) != 3 {
				errs <- fmt.Errorf("rows = %d, want 3", len(rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
