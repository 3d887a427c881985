package amber

import (
	"sort"
	"testing"
)

// TestDistinctSemantics: without DISTINCT, the projection of a wider
// embedding set may repeat rows; DISTINCT collapses them.
func TestDistinctSemantics(t *testing.T) {
	db := openDB(t)
	// ?who has two wasBornIn/diedIn... project only the city of birth of
	// people who lived somewhere: Nolan→England, Amy→US, Blake→US gives
	// two distinct ?b values.
	plain, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?b WHERE { ?a y:livedIn ?b }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 3 {
		t.Fatalf("plain rows = %d, want 3", len(plain))
	}
	distinct, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?b WHERE { ?a y:livedIn ?b }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(distinct) != 2 {
		t.Fatalf("distinct rows = %d, want 2 (England, United_States)", len(distinct))
	}
}

func TestUnionSemantics(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p WHERE {
  { ?p y:wasBornIn ?c } UNION { ?p y:diedIn ?c }
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	// wasBornIn: Nolan, Amy; diedIn: Amy → 3 rows (bag semantics).
	if len(rows) != 3 {
		t.Fatalf("union rows = %d, want 3", len(rows))
	}
	// With DISTINCT on ?p: Nolan, Amy.
	rows, err = collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?p WHERE {
  { ?p y:wasBornIn ?c } UNION { ?p y:diedIn ?c }
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distinct union rows = %d, want 2", len(rows))
	}
}

func TestUnionUnboundVariables(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p ?band WHERE {
  { ?p y:wasMarriedTo ?x } UNION { ?p y:wasPartOf ?band }
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	sawUnbound := false
	for _, r := range rows {
		if _, ok := r["band"]; !ok {
			sawUnbound = true
		}
	}
	if !sawUnbound {
		t.Error("expected ?band unbound in the first branch's row")
	}
}

func TestFilterEqAndNe(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE {
  ?a y:livedIn ?b .
  FILTER (?b = <http://dbpedia.org/resource/United_States>)
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("eq-filtered rows = %d, want 2", len(rows))
	}
	rows, err = collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE {
  ?a y:livedIn ?b .
  FILTER (?b != <http://dbpedia.org/resource/United_States>)
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("ne-filtered rows = %d, want 1 (Nolan→England)", len(rows))
	}
}

func TestFilterVarToVar(t *testing.T) {
	db := openDB(t)
	// Pairs living in the same place, excluding self-pairs.
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE {
  ?a y:livedIn ?c .
  ?b y:livedIn ?c .
  FILTER (?a != ?b)
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Amy and Blake both lived in the US: (Amy,Blake) and (Blake,Amy).
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
}

func TestFilterRegexAndStrStarts(t *testing.T) {
	db := openDB(t)
	rows, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a WHERE {
  ?a y:livedIn ?b .
  FILTER regex(?a, "Winehouse")
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("regex rows = %d, want 1", len(rows))
	}
	rows, err = collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a WHERE {
  ?a y:wasBornIn ?b .
  FILTER strstarts(str(?a), "http://dbpedia.org/resource/C")
}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["a"].Value != "http://dbpedia.org/resource/Christopher_Nolan" {
		t.Fatalf("strstarts rows = %v", rows)
	}
}

func TestOffsetPagination(t *testing.T) {
	db := openDB(t)
	q := `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?a ?b WHERE { ?a y:livedIn ?b }`
	all, err := collect(db.All(t.Context(), q, nil))
	if err != nil {
		t.Fatal(err)
	}
	var pages []map[string]Term
	for off := 0; off < len(all); off++ {
		page, err := collect(db.All(t.Context(), q+" OFFSET "+itoa(off)+" LIMIT 1", nil))
		if err != nil {
			t.Fatal(err)
		}
		if len(page) != 1 {
			t.Fatalf("page at offset %d = %d rows", off, len(page))
		}
		pages = append(pages, page[0])
	}
	// Pagination must cover exactly the full result set.
	key := func(r map[string]Term) string { return r["a"].Value + "|" + r["b"].Value }
	var wantKeys, gotKeys []string
	for _, r := range all {
		wantKeys = append(wantKeys, key(r))
	}
	for _, r := range pages {
		gotKeys = append(gotKeys, key(r))
	}
	sort.Strings(wantKeys)
	sort.Strings(gotKeys)
	for i := range wantKeys {
		if wantKeys[i] != gotKeys[i] {
			t.Fatalf("pagination mismatch: %v vs %v", wantKeys, gotKeys)
		}
	}
	// Offset beyond the result set yields nothing.
	page, err := collect(db.All(t.Context(), q+" OFFSET 99", nil))
	if err != nil || len(page) != 0 {
		t.Errorf("beyond-end page = %v, %v", page, err)
	}
}

func TestCountWithExtensions(t *testing.T) {
	db := openDB(t)
	n, err := db.Count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?b WHERE { ?a y:livedIn ?b }`, nil)
	if err != nil || n != 2 {
		t.Errorf("distinct count = %d, %v; want 2", n, err)
	}
	n, err = db.Count(`
PREFIX y: <http://dbpedia.org/ontology/>
SELECT ?p WHERE { { ?p y:wasBornIn ?c } UNION { ?p y:diedIn ?c } }`, nil)
	if err != nil || n != 3 {
		t.Errorf("union count = %d, %v; want 3", n, err)
	}
}

func TestExtensionTimeout(t *testing.T) {
	db := openDB(t)
	_, err := collect(db.All(t.Context(), `
PREFIX y: <http://dbpedia.org/ontology/>
SELECT DISTINCT ?b WHERE { ?a y:livedIn ?b }`, &QueryOptions{Timeout: -1}))
	if err != ErrTimeout {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
