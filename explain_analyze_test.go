package amber

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/datagen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// lubmDB loads a small deterministic LUBM corpus.
func lubmDB(t *testing.T) *DB {
	t.Helper()
	triples := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 7, Compact: true})
	var b strings.Builder
	for _, tr := range triples {
		fmt.Fprintf(&b, "%s %s %s .\n", tr.S, tr.P, tr.O)
	}
	db, err := OpenString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE report for a 3-pattern
// LUBM join: per-level estimated vs actual candidate frontiers, visit
// counts, engine effort and plan quality. Dataset, planner and engine are
// deterministic; only the `time:` line varies and is normalized away.
// Regenerate with `go test -run TestExplainAnalyzeGolden -update ./...`
// after an intentional planner or engine change.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := lubmDB(t)
	const q = `SELECT ?student ?prof ?dept WHERE {
  ?prof <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> ?dept .
  ?student <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> ?prof .
  ?student <http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf> ?dept .
}`
	out, err := db.ExplainAnalyzeContext(t.Context(), q, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := regexp.MustCompile(`(?m)^time: .*$`).ReplaceAllString(out, "time: <elided>")

	golden := filepath.Join("testdata", "explain_analyze_lubm.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN ANALYZE report drifted from golden.\n got:\n%s\nwant:\n%s", got, want)
	}

	// Structural checks independent of the exact numbers, so the intent
	// survives a legitimate -update.
	for _, frag := range []string{"shape=complex", "planner: cost", "est=", "actual=", "visits=", "rows: "} {
		if !strings.Contains(got, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

func TestExplainAnalyzeReportsActualFrontiers(t *testing.T) {
	db := lubmDB(t)
	const q = `SELECT ?s ?c WHERE { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#takesCourse> ?c . }`
	out, err := db.ExplainAnalyzeContext(t.Context(), q, "", &QueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	// One core level per variable, each with an actual count; the limit
	// stops enumeration early, so rows is exactly 5.
	if !strings.Contains(out, "core[0]") || !strings.Contains(out, "rows: 5") {
		t.Errorf("unexpected report:\n%s", out)
	}

	// Unknown planner name errors rather than silently defaulting.
	if _, err := db.ExplainAnalyzeContext(t.Context(), q, "nonsense", nil); err == nil {
		t.Error("unknown planner accepted")
	}
}
