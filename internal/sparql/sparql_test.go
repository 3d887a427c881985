package sparql

import (
	"strings"
	"testing"
)

// paperQuery is the SPARQL query of the paper's Figure 2a.
const paperQuery = `
PREFIX y: <http://dbpedia.org/ontology/>
PREFIX x: <http://dbpedia.org/resource/>
SELECT ?X0 ?X1 ?X2 ?X3 ?X4 ?X5 ?X6 WHERE {
  ?X0 y:livedIn ?X1 .
  ?X1 y:isPartOf ?X2 .
  ?X2 y:hasCapital ?X1 .
  ?X1 y:hasStadium ?X4 .
  ?X3 y:wasBornIn ?X1 .
  ?X3 y:diedIn ?X1 .
  ?X3 y:isMarriedTo ?X6 .
  ?X3 y:wasPartOf ?X5 .
  ?X5 y:wasFormedIn ?X1 .
  ?X4 y:hasCapacity "90000" .
  ?X5 y:hasName "MCA_Band" .
  ?X5 y:foundedIn "1934" .
  ?X3 y:livedIn x:United_States .
}`

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Patterns) != 13 {
		t.Fatalf("patterns = %d, want 13", len(q.Patterns))
	}
	if len(q.Select) != 7 {
		t.Errorf("select = %v, want 7 vars", q.Select)
	}
	if q.Star {
		t.Error("Star should be false")
	}
	// Pattern 0: ?X0 livedIn ?X1.
	p0 := q.Patterns[0]
	if p0.S.Kind != Var || p0.S.Value != "X0" {
		t.Errorf("p0.S = %v", p0.S)
	}
	if p0.P.Kind != IRI || p0.P.Value != "http://dbpedia.org/ontology/livedIn" {
		t.Errorf("p0.P = %v", p0.P)
	}
	// Pattern 9 object is a literal.
	if o := q.Patterns[9].O; o.Kind != Literal || o.Value != "90000" {
		t.Errorf("p9.O = %v", o)
	}
	// Pattern 12 object is a constant IRI.
	if o := q.Patterns[12].O; o.Kind != IRI || o.Value != "http://dbpedia.org/resource/United_States" {
		t.Errorf("p12.O = %v", o)
	}
	// All 7 variables occur.
	if vars := q.Variables(); len(vars) != 7 {
		t.Errorf("Variables = %v", vars)
	}
}

func TestSelectStar(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s <http://y/p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Star {
		t.Error("Star not set")
	}
	proj := q.Projection()
	if len(proj) != 2 || proj[0] != "s" || proj[1] != "o" {
		t.Errorf("Projection = %v", proj)
	}
}

func TestWhereKeywordOptional(t *testing.T) {
	q, err := Parse(`SELECT ?s { ?s <http://y/p> ?o }`)
	if err != nil {
		t.Fatalf("Parse without WHERE: %v", err)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func TestTrailingDotOptional(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s <http://y/p> ?o . ?o <http://y/q> ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 2 {
		t.Errorf("patterns = %d, want 2", len(q.Patterns))
	}
}

func TestSemicolonAndCommaAbbreviations(t *testing.T) {
	q, err := Parse(`
PREFIX y: <http://y/>
SELECT * WHERE {
  ?s y:p ?a , ?b ; y:q ?c ; y:r "lit" .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 4 {
		t.Fatalf("patterns = %d, want 4: %v", len(q.Patterns), q.Patterns)
	}
	for i, want := range []string{"p", "p", "q", "r"} {
		if got := q.Patterns[i].P.Value; got != "http://y/"+want {
			t.Errorf("pattern %d predicate = %q, want %q", i, got, want)
		}
	}
	if q.Patterns[1].O.Value != "b" || q.Patterns[1].S.Value != "s" {
		t.Errorf("comma pattern = %v", q.Patterns[1])
	}
}

func TestDanglingSemicolon(t *testing.T) {
	q, err := Parse(`SELECT * WHERE { ?s <http://y/p> ?o ; . }`)
	if err != nil {
		t.Fatalf("dangling ';': %v", err)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func TestRDFTypeAbbreviation(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s a <http://x/Person> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].P.Value != "http://www.w3.org/1999/02/22-rdf-syntax-ns#type" {
		t.Errorf("'a' predicate = %q", q.Patterns[0].P.Value)
	}
}

func TestLimit(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE { ?s <http://y/p> ?o . } LIMIT 42`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 42 {
		t.Errorf("Limit = %d", q.Limit)
	}
}

func TestDollarVariables(t *testing.T) {
	q, err := Parse(`SELECT $s WHERE { $s <http://y/p> $o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0] != "s" {
		t.Errorf("Select = %v", q.Select)
	}
}

func TestLiteralEscapesAndSuffixes(t *testing.T) {
	q, err := Parse(`SELECT ?s WHERE {
		?s <http://y/p> "a\"b\nc" .
		?s <http://y/q> "42"^^<http://www.w3.org/2001/XMLSchema#int> .
		?s <http://y/r> "chat"@fr .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Patterns[0].O.Value; got != "a\"b\nc" {
		t.Errorf("escape literal = %q", got)
	}
	if o := q.Patterns[1].O; o.Value != "42" || o.Datatype != "http://www.w3.org/2001/XMLSchema#int" {
		t.Errorf("datatype literal = %+v", o)
	}
	if o := q.Patterns[2].O; o.Value != "chat" || o.Lang != "fr" {
		t.Errorf("lang literal = %+v", o)
	}
}

// TestLiteralEscapeForms: string literals accept the same ECHAR and UCHAR
// escapes as the N-Triples loader, and an escape naming no Unicode scalar
// value is a parse error.
func TestLiteralEscapeForms(t *testing.T) {
	for lit, want := range map[string]string{
		`"caf\u00e9"`:        "café",
		`"\U0001F600"`:       "\U0001F600",
		`"a\bb"`:             "a\bb",
		`"\t\b\n\r\f\"\'\\"`: "\t\b\n\r\f\"'\\",
		`"caf\u00e9"@fr`:     "café",
		`"\u0034\u0032"^^<http://www.w3.org/2001/XMLSchema#int>`: "42",
	} {
		q, err := Parse(`SELECT ?s WHERE { ?s <http://y/p> ` + lit + ` . }`)
		if err != nil {
			t.Errorf("%s: %v", lit, err)
			continue
		}
		if got := q.Patterns[0].O.Value; got != want {
			t.Errorf("%s = %q, want %q", lit, got, want)
		}
	}
	for _, lit := range []string{`"\uD800"`, `"\U00110000"`, `"\x"`, `"\u00e"`} {
		if _, err := Parse(`SELECT ?s WHERE { ?s <http://y/p> ` + lit + ` . }`); err == nil {
			t.Errorf("%s parsed", lit)
		}
		if _, err := ParseUpdate(`INSERT DATA { <http://x/s> <http://y/p> ` + lit + ` . }`); err == nil {
			t.Errorf("INSERT DATA with %s parsed", lit)
		}
	}
}

func TestComments(t *testing.T) {
	q, err := Parse(`# leading comment
SELECT ?s WHERE { # inline
  ?s <http://y/p> ?o . # trailing
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Patterns) != 1 {
		t.Errorf("patterns = %d", len(q.Patterns))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"no select", `DESCRIBE <http://x/a>`, "expected SELECT or ASK"},
		{"empty select", `SELECT WHERE { ?s <http://y/p> ?o }`, "SELECT needs"},
		{"no brace", `SELECT ?s ?s <http://y/p> ?o }`, "expected '{'"},
		{"variable predicate", `SELECT ?s WHERE { ?s ?p ?o }`, "variable predicates"},
		{"literal subject", `SELECT ?s WHERE { "x" <http://y/p> ?o }`, "object position"},
		{"literal predicate", `SELECT ?s WHERE { ?s "x" ?o }`, "object position"},
		{"unterminated where", `SELECT ?s WHERE { ?s <http://y/p> ?o .`, "unterminated WHERE"},
		{"empty where", `SELECT ?s WHERE { }`, "empty WHERE"},
		{"unbound prefix", `SELECT ?s WHERE { ?s q:p ?o }`, "unbound prefix"},
		{"projection not in pattern", `SELECT ?zzz WHERE { ?s <http://y/p> ?o }`, "does not occur"},
		{"bad limit", `SELECT ?s WHERE { ?s <http://y/p> ?o } LIMIT x`, "expected integer"},
		{"trailing garbage", `SELECT ?s WHERE { ?s <http://y/p> ?o } GARBAGE`, "trailing"},
		{"unterminated literal", `SELECT ?s WHERE { ?s <http://y/p> "x }`, "unterminated literal"},
		{"unterminated iri", `SELECT ?s WHERE { ?s <http://y/p ?o }`, "unterminated IRI"},
		{"empty variable", `SELECT ? WHERE { ?s <http://y/p> ?o }`, "empty variable"},
		{"bad prefix decl", `PREFIX <http://y/> SELECT ?s WHERE { ?s <http://y/p> ?o }`, "expected 'prefix:'"},
		{"bad escape", `SELECT ?s WHERE { ?s <http://y/p> "a\qb" }`, "unknown escape"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Parse("SELECT ?s WHERE {\n ?s ?p ?o }\n")
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of String(): %v\n%s", err, q.String())
	}
	if len(q2.Patterns) != len(q.Patterns) {
		t.Errorf("round trip patterns = %d, want %d", len(q2.Patterns), len(q.Patterns))
	}
	for i := range q.Patterns {
		if q.Patterns[i] != q2.Patterns[i] {
			t.Errorf("pattern %d: %v != %v", i, q.Patterns[i], q2.Patterns[i])
		}
	}
}

func TestTermAndKindStrings(t *testing.T) {
	if got := (Term{Kind: Var, Value: "x"}).String(); got != "?x" {
		t.Errorf("var term = %q", got)
	}
	if got := (Term{Kind: Literal, Value: "v"}).String(); got != `"v"` {
		t.Errorf("literal term = %q", got)
	}
	if got := (Term{Kind: IRI, Value: "http://x/a"}).String(); got != "<http://x/a>" {
		t.Errorf("iri term = %q", got)
	}
	for k, want := range map[TermKind]string{Var: "Var", IRI: "IRI", Literal: "Literal", TermKind(7): "TermKind(7)"} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

func TestPrefixedNameWithTrailingDot(t *testing.T) {
	q, err := Parse(`PREFIX y: <http://y/> SELECT * WHERE { ?s y:p y:o. }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].O.Value != "http://y/o" {
		t.Errorf("object = %q, dot not separated", q.Patterns[0].O.Value)
	}
}
