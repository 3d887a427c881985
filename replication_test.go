package amber_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	amber "repro"
	"repro/internal/rdf"
	"repro/internal/wal"
)

func replRec(seq uint64, i int) wal.Record {
	return wal.Record{
		Seq:   seq,
		Epoch: seq,
		Kind:  wal.KindMutation,
		Adds: []rdf.Triple{{
			S: rdf.NewIRI(fmt.Sprintf("http://rt/s%d", i)),
			P: rdf.NewIRI("http://rt/p"),
			O: rdf.NewIRI(fmt.Sprintf("http://rt/o%d", i)),
		}},
	}
}

// TestApplyReplicated drives the follower write path directly: records
// carrying a primary's sequence numbers must land in the store, persist
// the foreign cursor, and survive a reopen through ordinary recovery —
// a batch carrying a clear included.
func TestApplyReplicated(t *testing.T) {
	dir := t.TempDir()
	db, err := amber.OpenDurable(dir, &amber.DurabilityOptions{Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	// Sequences start above 1 and contain a gap — the local log must adopt
	// them verbatim rather than renumbering.
	if err := db.ApplyReplicated([]wal.Record{replRec(10, 0), replRec(11, 1)}); err != nil {
		t.Fatalf("ApplyReplicated: %v", err)
	}
	if err := db.ApplyReplicated([]wal.Record{replRec(20, 2)}); err != nil {
		t.Fatalf("ApplyReplicated 2: %v", err)
	}
	if got := db.Durability().LastSeq; got != 20 {
		t.Fatalf("LastSeq %d, want the primary's 20", got)
	}
	n, err := db.Count("SELECT ?s WHERE { ?s <http://rt/p> ?o . }", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("applied %d triples, want 3", n)
	}
	// Stale sequences are rejected and nothing is applied.
	if err := db.ApplyReplicated([]wal.Record{replRec(20, 3)}); err == nil {
		t.Fatal("ApplyReplicated accepted a stale sequence")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := amber.OpenDurable(dir, &amber.DurabilityOptions{Fsync: "never"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := re.Durability().LastSeq; got != 20 {
		t.Fatalf("recovered LastSeq %d, want 20", got)
	}
	n, err = re.Count("SELECT ?s WHERE { ?s <http://rt/p> ?o . }", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recovered %d triples, want 3", n)
	}

	// A clear travels the follower path inside a batch: it wipes what came
	// before it in the store and in the batch, and the store's epoch
	// advances once per record, clear included.
	e0 := re.Epoch()
	clearRec := wal.Record{Seq: 31, Epoch: 31, Kind: wal.KindClear}
	if err := re.ApplyReplicated([]wal.Record{replRec(30, 3), clearRec, replRec(32, 4)}); err != nil {
		t.Fatalf("ApplyReplicated with a clear: %v", err)
	}
	checkCleared := func(db *amber.DB, when string) {
		t.Helper()
		n, err := db.Count("SELECT ?s WHERE { ?s <http://rt/p> ?o . }", nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("%s: %d triples, want 1 (only the record after the clear)", when, n)
		}
		if got := db.Epoch() - e0; got != 3 {
			t.Errorf("%s: epoch rose by %d, want 3", when, got)
		}
		if got := db.Durability().LastSeq; got != 32 {
			t.Errorf("%s: LastSeq %d, want 32", when, got)
		}
	}
	checkCleared(re, "live")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := amber.OpenDurable(dir, &amber.DurabilityOptions{Fsync: "never"})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer re2.Close()
	checkCleared(re2, "reopened")
}

// TestReplicationOnMemoryDatabase pins the in-memory contract: applying
// replicated records works (a memory-only replica is valid), but there
// is no WAL to serve and no snapshot cursor to capture.
func TestReplicationOnMemoryDatabase(t *testing.T) {
	db, err := amber.OpenString("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.WAL() != nil {
		t.Fatal("in-memory database reports a WAL")
	}
	if err := db.ApplyReplicated([]wal.Record{replRec(1, 0)}); err != nil {
		t.Fatalf("in-memory ApplyReplicated: %v", err)
	}
	n, err := db.Count("SELECT ?s WHERE { ?s <http://rt/p> ?o . }", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("in-memory replica has %d triples, want 1", n)
	}
	if _, _, err := db.SaveReplica(&strings.Builder{}); !errors.Is(err, amber.ErrNotDurable) {
		t.Fatalf("SaveReplica error = %v, want ErrNotDurable", err)
	}
}
