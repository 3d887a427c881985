package rdf

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://example.org/a"), "<http://example.org/a>"},
		{NewIRI("_:b0"), "_:b0"},
		{NewLiteral("hello"), `"hello"`},
		{NewLiteral(`say "hi"`), `"say \"hi\""`},
		{NewLiteral("a\tb\nc"), `"a\tb\nc"`},
		{NewLiteral(`back\slash`), `"back\\slash"`},
	}
	for _, tc := range tests {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("Term%v.String() = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestTermPredicates(t *testing.T) {
	iri := NewIRI("http://x/a")
	lit := NewLiteral("v")
	if !iri.IsIRI() || iri.IsLiteral() {
		t.Errorf("IRI kind predicates wrong: %+v", iri)
	}
	if !lit.IsLiteral() || lit.IsIRI() {
		t.Errorf("Literal kind predicates wrong: %+v", lit)
	}
	var zero Term
	if !zero.IsZero() {
		t.Error("zero Term not reported as zero")
	}
	if iri.IsZero() || lit.IsZero() {
		t.Error("non-zero terms reported as zero")
	}
}

func TestTermKindString(t *testing.T) {
	if IRI.String() != "IRI" || Literal.String() != "Literal" {
		t.Errorf("kind names wrong: %s %s", IRI, Literal)
	}
	if got := TermKind(9).String(); got != "TermKind(9)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestParseBasicNTriples(t *testing.T) {
	src := `
# a comment
<http://x/London> <http://y/isPartOf> <http://x/England> .
<http://x/Wembley> <http://y/hasCapacityOf> "90000" .
_:b0 <http://y/knows> _:b1 .
`
	got, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d triples, want 3", len(got))
	}
	if got[0].S.Value != "http://x/London" || got[0].P.Value != "http://y/isPartOf" || got[0].O.Value != "http://x/England" {
		t.Errorf("triple 0 = %v", got[0])
	}
	if !got[1].O.IsLiteral() || got[1].O.Value != "90000" {
		t.Errorf("triple 1 object = %v", got[1].O)
	}
	if got[2].S.Value != "_:b0" || got[2].O.Value != "_:b1" {
		t.Errorf("blank nodes = %v", got[2])
	}
}

func TestParsePrefixedNames(t *testing.T) {
	src := `
@prefix x: <http://dbpedia.org/resource/> .
PREFIX y: <http://dbpedia.org/ontology/>
x:London y:isPartOf x:England .
x:Music_Band y:hasName "MCA_Band" .
`
	got, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d triples, want 2", len(got))
	}
	if got[0].S.Value != "http://dbpedia.org/resource/London" {
		t.Errorf("prefixed subject = %q", got[0].S.Value)
	}
	if got[0].P.Value != "http://dbpedia.org/ontology/isPartOf" {
		t.Errorf("prefixed predicate = %q", got[0].P.Value)
	}
	if got[1].O.Value != "MCA_Band" {
		t.Errorf("literal = %q", got[1].O.Value)
	}
}

func TestParseLiteralSuffixes(t *testing.T) {
	src := `<http://x/a> <http://y/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/a> <http://y/q> "bonjour"@fr .
`
	got, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if want := NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"); got[0].O != want {
		t.Errorf("datatype literal = %v, want %v", got[0].O, want)
	}
	if want := NewLangLiteral("bonjour", "fr"); got[1].O != want {
		t.Errorf("lang literal = %v, want %v", got[1].O, want)
	}
}

func TestParseEscapes(t *testing.T) {
	src := `<http://x/a> <http://y/p> "line1\nline2\t\"q\"\\ é \U0001F600" .` + "\n"
	got, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	want := "line1\nline2\t\"q\"\\ é \U0001F600"
	if got[0].O.Value != want {
		t.Errorf("escaped literal = %q, want %q", got[0].O.Value, want)
	}
}

// TestUnescapeLiteral: every ECHAR and UCHAR form decodes, the length
// covers the closing quote, and a malformed or invalid escape fails at its
// backslash.
func TestUnescapeLiteral(t *testing.T) {
	for _, c := range []struct {
		src, want string
		n         int
	}{
		{`" tail`, "", 1},
		{`plain" .`, "plain", 6},
		{`\t\b\n\r\f\"\'\\"`, "\t\b\n\r\f\"'\\", 17},
		{`caf\u00e9"`, "café", 10},
		{`caf\u00E9\U0001F600!"`, "café\U0001F600!", 21},
		{`\uFFFF\U0010FFFF"`, "\uFFFF\U0010FFFF", 17},
	} {
		got, n, err := UnescapeLiteral(c.src)
		if err != nil || got != c.want || n != c.n {
			t.Errorf("UnescapeLiteral(%q) = %q, %d, %v; want %q, %d", c.src, got, n, err, c.want, c.n)
		}
	}
	for _, c := range []struct {
		src, msg string
		n        int
	}{
		{`open`, "unterminated literal", 4},
		{`a\t`, "unterminated literal", 3},
		{`ab\`, "dangling escape", 2},
		{`a\x"`, "unknown escape \\x", 1},
		{`\u12"`, "truncated \\u escape", 0},
		{`x\u12G4"`, "bad escape \\u12G4", 1},
		{`x\u+123"`, "bad escape \\u+123", 1},
		{`\uD800"`, "escape \\uD800 is not a Unicode scalar value", 0},
		{`\uDFFF"`, "is not a Unicode scalar value", 0},
		{`ok \U00110000"`, "escape \\U00110000 is not a Unicode scalar value", 3},
		{`\UFFFFFFFF"`, "is not a Unicode scalar value", 0},
	} {
		_, n, err := UnescapeLiteral(c.src)
		if err == nil || !strings.Contains(err.Error(), c.msg) || n != c.n {
			t.Errorf("UnescapeLiteral(%q): n=%d err=%v, want offset %d and %q", c.src, n, err, c.n, c.msg)
		}
	}
}

// TestParseInvalidCodePoint: the loader rejects a UCHAR naming a surrogate
// or a code point past U+10FFFF, at the escape's column, rather than
// storing U+FFFD.
func TestParseInvalidCodePoint(t *testing.T) {
	for lit, col := range map[string]int{`"a\uD83D"`: 29, `"\U00110000"`: 28} {
		_, err := ParseString(`<http://x/a> <http://y/p> ` + lit + " .\n")
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Col != col {
			t.Errorf("literal %s: err = %v, want a parse error at col %d", lit, err, col)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"literal subject", `"lit" <http://y/p> <http://x/o> .`},
		{"literal predicate", `<http://x/s> "lit" <http://x/o> .`},
		{"missing dot", `<http://x/s> <http://y/p> <http://x/o>`},
		{"unterminated iri", `<http://x/s <http://y/p> <http://x/o> .`},
		{"unterminated literal", `<http://x/s> <http://y/p> "abc .`},
		{"unbound prefix", `foo:s <http://y/p> <http://x/o> .`},
		{"dangling escape", `<http://x/s> <http://y/p> "abc\` + `" .`},
		{"bad unicode escape", `<http://x/s> <http://y/p> "\uZZZZ" .`},
		{"empty iri", `<> <http://y/p> <http://x/o> .`},
		{"trailing garbage", `<http://x/s> <http://y/p> <http://x/o> . junk`},
		{"empty blank label", `_: <http://y/p> <http://x/o> .`},
		{"truncated line", `<http://x/s> <http://y/p>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.src + "\n"); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := ParseString("<http://x/a> <http://y/p> <http://x/b> .\nbroken line here\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("error text %q does not mention line", pe.Error())
	}
}

func TestDecoderEOF(t *testing.T) {
	d := NewDecoder(strings.NewReader("# only a comment\n\n"))
	if _, err := d.Decode(); err != io.EOF {
		t.Errorf("Decode on empty input = %v, want io.EOF", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	triples := []Triple{
		{NewIRI("http://x/s"), NewIRI("http://y/p"), NewIRI("http://x/o")},
		{NewIRI("http://x/s"), NewIRI("http://y/p"), NewLiteral(`tricky "value"` + "\twith\ttabs")},
		{NewBlank("blank"), NewIRI("http://y/p"), NewLiteral("plain")},
	}
	var sb strings.Builder
	enc := NewEncoder(&sb)
	for _, tr := range triples {
		if err := enc.Encode(tr); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(got) != len(triples) {
		t.Fatalf("round trip count = %d, want %d", len(got), len(triples))
	}
	for i := range triples {
		if got[i] != triples[i] {
			t.Errorf("round trip triple %d = %v, want %v", i, got[i], triples[i])
		}
	}
}

// TestLiteralRoundTripProperty checks, property-based, that any literal
// value survives encode→decode.
func TestLiteralRoundTripProperty(t *testing.T) {
	f := func(val string) bool {
		// The line-based grammar cannot represent other control chars that
		// we do not escape; restrict to the escapable set plus printables.
		val = strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\n' && r != '\t' && r != '\r' {
				return 'x'
			}
			return r
		}, val)
		tr := Triple{NewIRI("http://x/s"), NewIRI("http://y/p"), NewLiteral(val)}
		got, err := ParseString(tr.String() + "\n")
		if err != nil || len(got) != 1 {
			return false
		}
		return got[0].O.Value == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPrefixMap(t *testing.T) {
	var p PrefixMap
	p.Set("x", "http://dbpedia.org/resource/")
	p.Set("y", "http://dbpedia.org/ontology/")

	got, err := p.Expand("x:London")
	if err != nil || got != "http://dbpedia.org/resource/London" {
		t.Errorf("Expand = %q, %v", got, err)
	}
	if _, err := p.Expand("nope"); err == nil {
		t.Error("Expand without colon should fail")
	}
	if _, err := p.Expand("zz:a"); err == nil {
		t.Error("Expand with unbound prefix should fail")
	}

	if c, ok := p.Compact("http://dbpedia.org/ontology/isPartOf"); !ok || c != "y:isPartOf" {
		t.Errorf("Compact = %q, %v", c, ok)
	}
	if c, ok := p.Compact("http://other/thing"); ok || c != "http://other/thing" {
		t.Errorf("Compact miss = %q, %v", c, ok)
	}

	if ns, ok := p.Lookup("x"); !ok || ns != "http://dbpedia.org/resource/" {
		t.Errorf("Lookup = %q, %v", ns, ok)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if got := p.Prefixes(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Prefixes = %v", got)
	}

	c := p.Clone()
	c.Set("x", "http://elsewhere/")
	if ns, _ := p.Lookup("x"); ns != "http://dbpedia.org/resource/" {
		t.Error("Clone is not independent")
	}
}

func TestPrefixCompactLongestWins(t *testing.T) {
	var p PrefixMap
	p.Set("a", "http://x/")
	p.Set("b", "http://x/deep/")
	if c, ok := p.Compact("http://x/deep/item"); !ok || c != "b:item" {
		t.Errorf("Compact longest = %q, %v", c, ok)
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{NewIRI("http://x/s"), NewIRI("http://y/p"), NewLiteral("v")}
	want := `<http://x/s> <http://y/p> "v" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}
