package amber

import (
	"bytes"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := openDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Stats().Triples != db.Stats().Triples || db2.Stats().Vertices != db.Stats().Vertices {
		t.Fatalf("stats differ after snapshot: %+v vs %+v", db2.Stats(), db.Stats())
	}
	// Queries answer identically.
	q := `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?who ?where WHERE {
  ?who y:wasBornIn ?where .
  ?who y:diedIn ?where .
}`
	a, err := collect(db.All(t.Context(), q, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := collect(db2.All(t.Context(), q, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || a[0]["who"] != b[0]["who"] {
		t.Errorf("query results differ: %v vs %v", a, b)
	}
}

func TestSnapshotFiles(t *testing.T) {
	db := openDB(t)
	path := filepath.Join(t.TempDir(), "db.ambg")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.Count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT * WHERE { ?a y:livedIn ?b }`, nil)
	if err != nil || n != 3 {
		t.Errorf("count after snapshot = %d, %v", n, err)
	}
	if _, err := OpenSnapshotFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing snapshot accepted")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := OpenSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}
