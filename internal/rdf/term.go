// Package rdf provides the RDF data model used throughout the repository:
// terms, triples, prefix handling, and a streaming parser/writer for
// N-Triples plus a small prefixed (Turtle-like) surface syntax.
//
// The model follows the W3C RDF 1.1 abstract syntax restricted to what the
// AMbER paper (EDBT 2016, Section 2.1) requires: a subject and a predicate
// are always IRIs (blank nodes are accepted as subjects and objects), an
// object is an IRI, a blank node or a literal. Literals are typed: the
// lexical form, the datatype IRI and the language tag are carried as
// separate fields end to end, so `"42"^^xsd:integer` and the plain string
// `"42^^…"` are distinct terms.
package rdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// XSDString is the datatype IRI of plain string literals. Per RDF 1.1 a
// simple literal and one explicitly typed as xsd:string denote the same
// term, so the parser and constructors normalize the explicit form away:
// a Term with empty Datatype and Lang is an xsd:string literal.
const XSDString = "http://www.w3.org/2001/XMLSchema#string"

// TermKind discriminates the kinds of RDF terms the engine manipulates.
type TermKind uint8

const (
	// IRI is an Internationalized Resource Identifier.
	IRI TermKind = iota
	// Literal is an RDF literal: a lexical form plus an optional datatype
	// IRI or language tag.
	Literal
	// Blank is a blank node, identified by its _: label.
	Blank
)

// String reports the kind name, for diagnostics.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term: an IRI, a blank node or a literal.
//
// Value holds the IRI text, the blank label (including the "_:" prefix)
// or the literal's lexical form. Datatype and Lang are meaningful only
// for literals; at most one of them is non-empty.
//
// The zero value is an empty IRI, which is never produced by the parser
// and can therefore be used as a sentinel.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a plain (xsd:string) literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
// xsd:string is normalized to the plain form.
func NewTypedLiteral(lexical, datatype string) Term {
	if datatype == XSDString || datatype == "" {
		return Term{Kind: Literal, Value: lexical}
	}
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewBlank returns a blank-node term; label may be given with or without
// the "_:" prefix.
func NewBlank(label string) Term {
	if !strings.HasPrefix(label, "_:") {
		label = "_:" + label
	}
	return Term{Kind: Blank, Value: label}
}

// NewResource reconstructs an IRI or blank-node term from its dictionary
// key (the vertex dictionaries store blank labels in the "_:" namespace).
func NewResource(v string) Term {
	if strings.HasPrefix(v, "_:") {
		return Term{Kind: Blank, Value: v}
	}
	return Term{Kind: IRI, Value: v}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsResource reports whether the term can denote a graph vertex: an IRI
// or a blank node.
func (t Term) IsResource() bool { return t.Kind == IRI || t.Kind == Blank }

// IsZero reports whether the term is the zero Term.
func (t Term) IsZero() bool { return t == Term{} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case Literal:
		s := `"` + escapeLiteral(t.Value) + `"`
		switch {
		case t.Lang != "":
			s += "@" + t.Lang
		case t.Datatype != "":
			s += "^^<" + t.Datatype + ">"
		}
		return s
	case Blank:
		if isBlankLabel(t.Value) {
			return t.Value
		}
		return "<" + t.Value + ">"
	default:
		if isBlankLabel(t.Value) {
			return t.Value
		}
		return "<" + t.Value + ">"
	}
}

// isBlankLabel reports whether v is a well-formed blank-node identifier
// (the only form the unbracketed rendering may be used for).
func isBlankLabel(v string) bool {
	if len(v) < 3 || v[0] != '_' || v[1] != ':' {
		return false
	}
	for i := 2; i < len(v); i++ {
		c := v[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '_' || c == '-' || c == '.') {
			return false
		}
	}
	return true
}

// escapeLiteral escapes the characters N-Triples requires escaping inside a
// quoted literal. It works byte-wise (every escaped character is a single
// byte) so that arbitrary — even invalid-UTF-8 — content survives a
// round trip unmangled.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Triple is one RDF statement <s, p, o>. S is an IRI or blank node, P is
// always an IRI; O is any term (enforced by the parser, not by the type).
type Triple struct {
	S, P, O Term
}

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// UnescapeLiteral decodes the body of a double-quoted literal, as written
// in N-Triples, Turtle or SPARQL: src starts just after the opening quote.
// It returns the lexical form and n, the length of the body including the
// closing quote. The escapes are the three grammars' shared ECHAR (\t \b
// \n \r \f \" \' \\) and UCHAR (\uXXXX, \UXXXXXXXX); a UCHAR naming a
// surrogate or a code point above U+10FFFF is an error. On error, n is the
// offset in src at which decoding failed.
func UnescapeLiteral(src string) (val string, n int, err error) {
	var b strings.Builder
	for i := 0; ; i += 2 {
		j := strings.IndexAny(src[i:], `"\`)
		if j < 0 {
			return "", len(src), errors.New("unterminated literal")
		}
		b.WriteString(src[i : i+j])
		if i += j; src[i] == '"' {
			return b.String(), i + 1, nil
		}
		if i+1 >= len(src) {
			return "", i, errors.New("dangling escape")
		}
		switch e := src[i+1]; e {
		case 't':
			b.WriteByte('\t')
		case 'b':
			b.WriteByte('\b')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 'f':
			b.WriteByte('\f')
		case '"', '\'', '\\':
			b.WriteByte(e)
		case 'u', 'U':
			w := 4
			if e == 'U' {
				w = 8
			}
			if i+2+w > len(src) {
				return "", i, fmt.Errorf("truncated \\%c escape", e)
			}
			esc := src[i : i+2+w]
			v, perr := strconv.ParseUint(esc[2:], 16, 32)
			if perr != nil {
				return "", i, fmt.Errorf("bad escape %s", esc)
			}
			if !utf8.ValidRune(rune(v)) {
				return "", i, fmt.Errorf("escape %s is not a Unicode scalar value", esc)
			}
			b.WriteRune(rune(v))
			i += w
		default:
			return "", i, fmt.Errorf("unknown escape \\%c", e)
		}
	}
}
