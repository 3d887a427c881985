package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/rdf"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokVar
	tokIRIRef
	tokLiteral
	tokLBrace
	tokRBrace
	tokDot
	tokSemi
	tokComma
	tokStar
	tokInt
	tokLParen
	tokRParen
	tokEq
	tokNe
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokIRIRef:
		return "IRI"
	case tokLiteral:
		return "literal"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokDot:
		return "'.'"
	case tokSemi:
		return "';'"
	case tokComma:
		return "','"
	case tokStar:
		return "'*'"
	case tokInt:
		return "integer"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokEq:
		return "'='"
	case tokNe:
		return "'!='"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

type token struct {
	kind tokenKind
	text string
	line int
	col  int
	// Literal annotations (tokLiteral only): the language tag, or the
	// datatype (raw IRI text, or a prefixed name the parser must expand
	// when dtPrefixed is set).
	lang       string
	dtRaw      string
	dtPrefixed bool
}

// Error is a SPARQL syntax error with position information.
type Error struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("sparql: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// lexer converts the source text to tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.advance(1)
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
			continue
		}
		return
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	tok := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		tok.kind = tokEOF
		return tok, nil
	}
	switch c := l.src[l.pos]; c {
	case '{':
		l.advance(1)
		tok.kind = tokLBrace
		return tok, nil
	case '}':
		l.advance(1)
		tok.kind = tokRBrace
		return tok, nil
	case ';':
		l.advance(1)
		tok.kind = tokSemi
		return tok, nil
	case ',':
		l.advance(1)
		tok.kind = tokComma
		return tok, nil
	case '*':
		l.advance(1)
		tok.kind = tokStar
		return tok, nil
	case '(':
		l.advance(1)
		tok.kind = tokLParen
		return tok, nil
	case ')':
		l.advance(1)
		tok.kind = tokRParen
		return tok, nil
	case '=':
		l.advance(1)
		tok.kind = tokEq
		return tok, nil
	case '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.advance(2)
			tok.kind = tokNe
			return tok, nil
		}
		return tok, l.errf("unexpected '!'")
	case '?', '$':
		return l.lexVar()
	case '<':
		return l.lexIRIRef()
	case '"':
		return l.lexLiteral()
	case '.':
		l.advance(1)
		tok.kind = tokDot
		return tok, nil
	default:
		if c >= '0' && c <= '9' {
			return l.lexInt()
		}
		return l.lexIdent()
	}
}

func (l *lexer) lexVar() (token, error) {
	tok := token{kind: tokVar, line: l.line, col: l.col}
	l.advance(1) // sigil
	start := l.pos
	for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
		l.advance(1)
	}
	if l.pos == start {
		return tok, l.errf("empty variable name")
	}
	tok.text = l.src[start:l.pos]
	return tok, nil
}

func (l *lexer) lexIRIRef() (token, error) {
	tok := token{kind: tokIRIRef, line: l.line, col: l.col}
	end := strings.IndexByte(l.src[l.pos:], '>')
	if end < 0 {
		return tok, l.errf("unterminated IRI")
	}
	tok.text = l.src[l.pos+1 : l.pos+end]
	l.advance(end + 1)
	if tok.text == "" {
		return tok, l.errf("empty IRI")
	}
	return tok, nil
}

func (l *lexer) lexLiteral() (token, error) {
	tok := token{kind: tokLiteral, line: l.line, col: l.col}
	l.advance(1) // opening quote
	val, n, err := rdf.UnescapeLiteral(l.src[l.pos:])
	l.advance(n)
	if err != nil {
		return tok, l.errf("%v", err)
	}
	tok.text = val
	// Optional datatype / language suffixes, carried as annotations so
	// the parser builds typed literal terms (mirroring the data-side
	// parser).
	if l.pos < len(l.src) && l.src[l.pos] == '@' {
		l.advance(1)
		start := l.pos
		for l.pos < len(l.src) && (isIdentByte(l.src[l.pos]) || l.src[l.pos] == '-') {
			l.advance(1)
		}
		if l.pos == start {
			return tok, l.errf("empty language tag")
		}
		tok.lang = l.src[start:l.pos]
	} else if strings.HasPrefix(l.src[l.pos:], "^^") {
		l.advance(2)
		dt, err := l.next()
		if err != nil {
			return tok, err
		}
		switch dt.kind {
		case tokIRIRef:
			tok.dtRaw = dt.text
		case tokIdent:
			tok.dtRaw, tok.dtPrefixed = dt.text, true
		default:
			return tok, l.errf("expected datatype IRI after ^^")
		}
	}
	return tok, nil
}

func (l *lexer) lexInt() (token, error) {
	tok := token{kind: tokInt, line: l.line, col: l.col}
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.advance(1)
	}
	tok.text = l.src[start:l.pos]
	return tok, nil
}

// lexIdent scans keywords and prefixed names (which may contain one colon).
func (l *lexer) lexIdent() (token, error) {
	tok := token{kind: tokIdent, line: l.line, col: l.col}
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isIdentByte(c) || c == ':' {
			l.advance(1)
			continue
		}
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if r != utf8.RuneError && unicode.IsLetter(r) {
			l.advance(utf8.RuneLen(r))
			continue
		}
		break
	}
	if l.pos == start {
		return tok, l.errf("unexpected character %q", l.src[l.pos])
	}
	// A trailing dot terminates the statement rather than belonging to the
	// name (`x:London.` ≡ `x:London .`). Dots never span lines, so the
	// rewind only adjusts the column.
	for l.pos > start+1 && l.src[l.pos-1] == '.' {
		l.pos--
		l.col--
	}
	tok.text = l.src[start:l.pos]
	return tok, nil
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c == '%' || c == '/' || c == '#'
}
