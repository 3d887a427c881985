package amber

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
)

// typedFixture holds an IRI-valued edge, a typed literal, a language-
// tagged literal, a plain literal, and a predicate with both IRI and
// literal objects.
const typedFixture = `
<http://x/alice> <http://p/knows> <http://x/bob> .
<http://x/alice> <http://p/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/alice> <http://p/greet> "hi"@en .
<http://x/alice> <http://p/name> "Alice" .
<http://x/bob> <http://p/name> "Bob" .
<http://x/bob> <http://p/mixed> <http://x/alice> .
<http://x/bob> <http://p/mixed> "both"@fr .
`

func openTyped(t *testing.T) *DB {
	t.Helper()
	db, err := OpenString(typedFixture)
	if err != nil {
		t.Fatalf("OpenString: %v", err)
	}
	return db
}

func TestLiteralBindings(t *testing.T) {
	db := openTyped(t)

	get := func(query string) Term {
		t.Helper()
		var got []Term
		for b, err := range db.All(context.Background(), query, nil) {
			if err != nil {
				t.Fatalf("%s: %v", query, err)
			}
			if v, ok := b.Get("v"); ok {
				got = append(got, v)
			}
		}
		if len(got) != 1 {
			t.Fatalf("%s: got %d bindings, want 1: %v", query, len(got), got)
		}
		return got[0]
	}

	if got, want := get(`SELECT ?v WHERE { <http://x/alice> <http://p/age> ?v }`),
		NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"); got != want {
		t.Errorf("typed literal = %v, want %v", got, want)
	}
	if got, want := get(`SELECT ?v WHERE { <http://x/alice> <http://p/greet> ?v }`),
		NewLangLiteral("hi", "en"); got != want {
		t.Errorf("lang literal = %v, want %v", got, want)
	}
	if got, want := get(`SELECT ?v WHERE { ?s <http://p/age> ?v }`),
		NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"); got != want {
		t.Errorf("var-subject literal = %v, want %v", got, want)
	}
	if got, want := get(`SELECT ?v WHERE { <http://x/alice> <http://p/knows> ?v }`),
		NewIRI("http://x/bob"); got != want {
		t.Errorf("IRI binding = %v, want %v", got, want)
	}
}

// TestMixedPredicate checks that a predicate carrying both IRI and
// literal objects binds both through one variable.
func TestMixedPredicate(t *testing.T) {
	db := openTyped(t)
	rows, err := collect(db.All(t.Context(), `SELECT ?v WHERE { <http://x/bob> <http://p/mixed> ?v }`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("mixed predicate rows = %d, want 2: %v", len(rows), rows)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r["v"].Value] = true
	}
	if !seen["http://x/alice"] || !seen["both"] {
		t.Errorf("mixed bindings = %v", seen)
	}
}

// TestLiteralJoinVariablesStayVertices: a variable that joins across
// patterns binds vertices only — the literal extension must not leak
// into core matching.
func TestLiteralJoinVariablesStayVertices(t *testing.T) {
	db := openTyped(t)
	rows, err := collect(db.All(t.Context(), `SELECT ?v WHERE {
		<http://x/bob> <http://p/mixed> ?v .
		?v <http://p/knows> <http://x/bob> .
	}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["v"].Value != "http://x/alice" {
		t.Errorf("join rows = %v", rows)
	}
}

func TestUnboundIsExplicit(t *testing.T) {
	db := openTyped(t)
	q := `SELECT ?s ?v WHERE {
		{ ?s <http://p/knows> <http://x/bob> } UNION { ?s <http://p/knows> ?v }
	}`
	var sawUnbound bool
	for b, err := range db.All(context.Background(), q, nil) {
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.Get("v"); !ok {
			sawUnbound = true
			if b.Bound("v") {
				t.Error("Bound disagrees with Get")
			}
		}
	}
	if !sawUnbound {
		t.Error("no unbound binding observed across UNION branches")
	}
}

func TestRowsCursor(t *testing.T) {
	db := openTyped(t)
	rows, err := db.QueryContext(context.Background(),
		`SELECT ?s ?n WHERE { ?s <http://p/name> ?n }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Vars(); len(got) != 2 || got[0] != "s" || got[1] != "n" {
		t.Fatalf("Vars = %v", got)
	}
	names := map[string]string{}
	for rows.Next() {
		var s, n Term
		if err := rows.Scan(&s, &n); err != nil {
			t.Fatal(err)
		}
		if s.Kind != IRI || n.Kind != Literal {
			t.Errorf("kinds = %v %v", s.Kind, n.Kind)
		}
		names[s.Value] = n.Value
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names["http://x/alice"] != "Alice" || names["http://x/bob"] != "Bob" {
		t.Errorf("names = %v", names)
	}
	if err := rows.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestRowsEarlyClose(t *testing.T) {
	db := openTyped(t)
	rows, err := db.QueryContext(context.Background(),
		`SELECT ?s ?o WHERE { ?s <http://p/name> ?o }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("Next = false, err %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Errorf("Close after partial read = %v", err)
	}
	if rows.Next() {
		t.Error("Next after Close = true")
	}
	if err := rows.Err(); err != nil {
		t.Errorf("Err after Close = %v", err)
	}
}

func TestRowsScanString(t *testing.T) {
	db := openTyped(t)
	rows, err := db.QueryContext(context.Background(),
		`SELECT ?v WHERE { <http://x/alice> <http://p/age> ?v }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("Next = false, err %v", rows.Err())
	}
	var s string
	if err := rows.Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != "42" {
		t.Errorf("string scan = %q (lexical form expected)", s)
	}
	if err := rows.Scan(new(int)); err == nil {
		t.Error("Scan into *int did not error")
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db := openTyped(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT ?s WHERE { ?s <http://p/name> ?o }`, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled QueryContext err = %v", err)
	}
	var count int
	for _, err := range db.All(ctx, `SELECT ?s WHERE { ?s <http://p/name> ?o }`, nil) {
		if err == nil {
			count++
		} else if !errors.Is(err, context.Canceled) {
			t.Errorf("All err = %v", err)
		}
	}
	if count != 0 {
		t.Errorf("cancelled All yielded %d rows", count)
	}
}

func TestContextDeadlineMapsToTimeout(t *testing.T) {
	db := openTyped(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := db.QueryContext(ctx, `SELECT ?s WHERE { ?s <http://p/name> ?o }`, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired-deadline QueryContext err = %v", err)
	}
}

func TestAsk(t *testing.T) {
	db := openTyped(t)
	cases := []struct {
		query string
		want  bool
	}{
		{`ASK { <http://x/alice> <http://p/knows> <http://x/bob> }`, true},
		{`ASK WHERE { <http://x/bob> <http://p/knows> <http://x/alice> }`, false},
		{`ASK { ?s <http://p/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> }`, true},
		{`ASK { ?s <http://p/age> "42" }`, false}, // plain "42" is a different term
		{`ASK { ?s <http://p/greet> "hi"@en }`, true},
		{`ASK { ?s <http://p/greet> "hi" }`, false},
	}
	for _, c := range cases {
		got, err := db.AskContext(t.Context(), c.query, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("Ask(%s) = %v, want %v", c.query, got, c.want)
		}
	}
	p, err := db.Prepare(`ASK { ?s <http://p/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsAsk() {
		t.Error("IsAsk = false for ASK query")
	}
	if ok, err := p.AskContext(t.Context(), nil); err != nil || !ok {
		t.Errorf("prepared Ask = %v, %v", ok, err)
	}
}

// TestTypedTermsSurviveSnapshot: save → load keeps datatypes and tags.
func TestTypedTermsSurviveSnapshot(t *testing.T) {
	db := openTyped(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.AskContext(t.Context(), `ASK { ?s <http://p/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> }`, nil)
	if err != nil || !got {
		t.Errorf("typed ask after snapshot round trip = %v, %v", got, err)
	}
	rows, err := loaded.QueryContext(context.Background(),
		`SELECT ?v WHERE { <http://x/alice> <http://p/greet> ?v }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row, err %v", rows.Err())
	}
	var v Term
	if err := rows.Scan(&v); err != nil {
		t.Fatal(err)
	}
	if want := NewLangLiteral("hi", "en"); v != want {
		t.Errorf("lang literal after snapshot = %v, want %v", v, want)
	}
}

// TestTypedTermsThroughUpdate: live-inserted typed literals are queryable
// and keep their types through compaction.
func TestTypedTermsThroughUpdate(t *testing.T) {
	db := openTyped(t)
	err := db.Update(`INSERT DATA {
		<http://x/carol> <http://p/age> "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
		<http://x/carol> <http://p/greet> "hej"@sv .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	want := NewTypedLiteral("7", "http://www.w3.org/2001/XMLSchema#integer")
	check := func(stage string) {
		t.Helper()
		var got []Term
		for b, err := range db.All(context.Background(),
			`SELECT ?v WHERE { <http://x/carol> <http://p/age> ?v }`, nil) {
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if v, ok := b.Get("v"); ok {
				got = append(got, v)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s: bindings = %v, want [%v]", stage, got, want)
		}
	}
	check("overlay")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
}

// TestFilterEqualityAcrossPredicates: FILTER (?a = ?b) over literal
// bindings compares terms, not interned ids — the same literal reached
// through two predicates must compare equal (review regression).
func TestFilterEqualityAcrossPredicates(t *testing.T) {
	db, err := OpenString(`
<http://x/s> <http://p/a> "42" .
<http://x/t> <http://p/b> "42" .
<http://x/t> <http://p/b> "43" .
`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := collect(db.All(t.Context(), `SELECT ?o ?u WHERE {
		<http://x/s> <http://p/a> ?o .
		<http://x/t> <http://p/b> ?u .
		FILTER (?o = ?u)
	}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["o"].Value != "42" || rows[0]["u"].Value != "42" {
		t.Errorf("cross-predicate equality rows = %v, want one 42/42 row", rows)
	}
	ne, err := collect(db.All(t.Context(), `SELECT ?o ?u WHERE {
		<http://x/s> <http://p/a> ?o .
		<http://x/t> <http://p/b> ?u .
		FILTER (?o != ?u)
	}`, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(ne) != 1 || ne[0]["u"].Value != "43" {
		t.Errorf("cross-predicate inequality rows = %v, want one 42/43 row", ne)
	}
}

// TestMutateRejectsMalformedLiteral: a literal carrying both a datatype
// and a language tag violates the term invariant and must be rejected at
// the mutation boundary — otherwise Save would write a snapshot the same
// build refuses to reopen (review regression).
func TestMutateRejectsMalformedLiteral(t *testing.T) {
	db := openTyped(t)
	bad := Triple{
		S: NewIRI("http://x/s"), P: NewIRI("http://p/q"),
		O: Term{Kind: Literal, Value: "x", Datatype: "http://ex/dt", Lang: "en"},
	}
	if err := db.Mutate([]Triple{bad}, nil); err == nil {
		t.Fatal("Mutate accepted a literal with both datatype and language tag")
	}
}

// TestExplicitXSDStringNormalizes: Term{Datatype: xsd:string} interns
// identically to the plain literal, live and across WAL replay.
func TestExplicitXSDStringNormalizes(t *testing.T) {
	db := openTyped(t)
	explicit := Triple{
		S: NewIRI("http://x/s2"), P: NewIRI("http://p/q"),
		O: Term{Kind: Literal, Value: "v", Datatype: "http://www.w3.org/2001/XMLSchema#string"},
	}
	if err := db.Mutate([]Triple{explicit}, nil); err != nil {
		t.Fatal(err)
	}
	ok, err := db.AskContext(t.Context(), `ASK { <http://x/s2> <http://p/q> "v" }`, nil)
	if err != nil || !ok {
		t.Errorf("explicit xsd:string not found as plain literal: %v, %v", ok, err)
	}
}

// TestAskShortCircuits: ASK stops the engine at the first embedding even
// on the plain-query path (review regression: the factorized count used
// to tally everything before capping).
func TestAskShortCircuits(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "<http://v/%d> <http://p/t> <http://v/%d> .\n", i, (i+1)%500)
	}
	db, err := OpenString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	// Plain single-pattern query with 500 solutions.
	yes, err := db.AskContext(t.Context(), `ASK { ?a <http://p/t> ?b }`, nil)
	if err != nil || !yes {
		t.Fatalf("Ask = %v, %v", yes, err)
	}
	// The short-circuit is observable through the engine counters: Ask
	// must stop after the first embedding instead of visiting all 500
	// initial candidates the way the factorized count would.
	p, err := db.Prepare(`ASK { ?a <http://p/t> ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	var st engine.Stats
	ok, err := p.cp.Ask(engine.Options{Stats: &st})
	if err != nil || !ok {
		t.Fatalf("core Ask = %v, %v", ok, err)
	}
	if st.Embeddings > 1 {
		t.Errorf("Ask yielded %d embeddings, want at most 1", st.Embeddings)
	}
	if st.Recursions > 5 {
		t.Errorf("Ask recursed %d times over 500 candidates — not short-circuiting", st.Recursions)
	}
	sel, err := db.Prepare(`SELECT ?a WHERE { ?a <http://p/t> ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sel.Count(t.Context(), nil)
	if err != nil || n != 500 {
		t.Fatalf("Count = %d, %v; want 500", n, err)
	}
}

// TestRowsCloseKeepsParentCancellation: Close suppresses only its own
// cancellation; a cancellation of the caller's context survives it.
func TestRowsCloseKeepsParentCancellation(t *testing.T) {
	db := openTyped(t)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT ?s WHERE { ?s <http://p/name> ?o }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the caller's own context dies before/while iterating
	for rows.Next() {
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) && rows.Err() == nil {
		// Either Close or Err must surface the parent cancellation —
		// unless the tiny result set was fully drained before the engine
		// ever observed the cancelled context.
		t.Logf("note: result set drained before cancellation was observed (err=%v)", err)
	}
	if e := rows.Err(); e != nil && !errors.Is(e, context.Canceled) {
		t.Errorf("Err = %v, want nil or context.Canceled", e)
	}
}
