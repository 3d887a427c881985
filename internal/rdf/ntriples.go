package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseError describes a syntax error with its position in the input.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Decoder reads RDF statements from a stream. It accepts the N-Triples
// grammar plus two pragmatic extensions that the repository's datasets and
// examples use:
//
//   - prefix directives: both Turtle style `@prefix p: <ns> .` and SPARQL
//     style `PREFIX p: <ns>`;
//   - prefixed names (`p:local`) wherever a full IRI may appear.
//
// Literal datatype (`^^<iri>`) and language (`@tag`) suffixes are parsed
// into the Term's Datatype and Lang fields, so typed literals survive the
// full parse → intern → decode → serialize path.
type Decoder struct {
	scan     *bufio.Scanner
	prefixes *PrefixMap
	line     int
	// current line state
	buf string
	pos int
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Decoder{scan: sc, prefixes: &PrefixMap{}}
}

// Prefixes exposes the prefix bindings seen so far (and allows pre-binding).
func (d *Decoder) Prefixes() *PrefixMap { return d.prefixes }

// Decode returns the next triple, or io.EOF when the input is exhausted.
func (d *Decoder) Decode() (Triple, error) {
	for {
		if err := d.nextContentLine(); err != nil {
			return Triple{}, err
		}
		if d.tryDirective() {
			continue
		}
		return d.parseTriple()
	}
}

// DecodeAll reads every remaining triple.
func (d *Decoder) DecodeAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// nextContentLine advances to the next non-blank, non-comment line.
func (d *Decoder) nextContentLine() error {
	for {
		if !d.scan.Scan() {
			if err := d.scan.Err(); err != nil {
				return err
			}
			return io.EOF
		}
		d.line++
		d.buf = d.scan.Text()
		d.pos = 0
		d.skipSpace()
		if d.pos >= len(d.buf) || d.buf[d.pos] == '#' {
			continue
		}
		return nil
	}
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.buf) && (d.buf[d.pos] == ' ' || d.buf[d.pos] == '\t' || d.buf[d.pos] == '\r') {
		d.pos++
	}
}

func (d *Decoder) errf(format string, args ...any) error {
	return &ParseError{Line: d.line, Col: d.pos + 1, Msg: fmt.Sprintf(format, args...)}
}

// tryDirective consumes a prefix directive if the current line holds one.
func (d *Decoder) tryDirective() bool {
	rest := d.buf[d.pos:]
	var after string
	switch {
	case strings.HasPrefix(rest, "@prefix"):
		after = rest[len("@prefix"):]
	case strings.HasPrefix(rest, "PREFIX"), strings.HasPrefix(rest, "prefix"):
		after = rest[len("PREFIX"):]
	default:
		return false
	}
	// The keyword must end at a word boundary ("prefixx" is not a
	// directive).
	if after == "" || (after[0] != ' ' && after[0] != '\t') {
		return false
	}
	fields := strings.Fields(strings.TrimSuffix(strings.TrimSpace(after), "."))
	if len(fields) < 2 {
		return false
	}
	prefix := strings.TrimSuffix(fields[0], ":")
	ns := fields[1]
	if !strings.HasPrefix(ns, "<") || !strings.HasSuffix(ns, ">") {
		return false
	}
	ns = ns[1 : len(ns)-1]
	// A namespace containing the IRI terminator could expand to IRIs that
	// cannot be serialized; reject the directive.
	if strings.ContainsAny(ns, "<>\"") {
		return false
	}
	d.prefixes.Set(prefix, ns)
	return true
}

// parseTriple parses the current line as one triple terminated by '.'.
func (d *Decoder) parseTriple() (Triple, error) {
	s, err := d.parseTerm()
	if err != nil {
		return Triple{}, err
	}
	if !s.IsResource() {
		return Triple{}, d.errf("subject must be an IRI or blank node, got literal %q", s.Value)
	}
	d.skipSpace()
	p, err := d.parseTerm()
	if err != nil {
		return Triple{}, err
	}
	if !p.IsIRI() {
		return Triple{}, d.errf("predicate must be an IRI, got %v", p)
	}
	d.skipSpace()
	o, err := d.parseTerm()
	if err != nil {
		return Triple{}, err
	}
	d.skipSpace()
	if d.pos >= len(d.buf) || d.buf[d.pos] != '.' {
		return Triple{}, d.errf("expected terminating '.'")
	}
	d.pos++
	d.skipSpace()
	if d.pos < len(d.buf) && d.buf[d.pos] != '#' {
		return Triple{}, d.errf("unexpected trailing input %q", d.buf[d.pos:])
	}
	return Triple{S: s, P: p, O: o}, nil
}

// parseTerm parses one term at the current position.
func (d *Decoder) parseTerm() (Term, error) {
	if d.pos >= len(d.buf) {
		return Term{}, d.errf("unexpected end of line, expected term")
	}
	switch c := d.buf[d.pos]; {
	case c == '<':
		return d.parseIRIRef()
	case c == '"':
		return d.parseLiteral()
	case c == '_':
		return d.parseBlank()
	default:
		return d.parsePrefixedName()
	}
}

func (d *Decoder) parseIRIRef() (Term, error) {
	end := strings.IndexByte(d.buf[d.pos:], '>')
	if end < 0 {
		return Term{}, d.errf("unterminated IRI")
	}
	iri := d.buf[d.pos+1 : d.pos+end]
	d.pos += end + 1
	if iri == "" {
		return Term{}, d.errf("empty IRI")
	}
	return NewIRI(iri), nil
}

func (d *Decoder) parseBlank() (Term, error) {
	start := d.pos
	if !strings.HasPrefix(d.buf[d.pos:], "_:") {
		return Term{}, d.errf("malformed blank node")
	}
	d.pos += 2
	for d.pos < len(d.buf) && isNameByte(d.buf[d.pos]) {
		d.pos++
	}
	if d.pos == start+2 {
		return Term{}, d.errf("blank node with empty label")
	}
	return NewBlank(d.buf[start:d.pos]), nil
}

func (d *Decoder) parsePrefixedName() (Term, error) {
	start := d.pos
	for d.pos < len(d.buf) && (isNameByte(d.buf[d.pos]) || d.buf[d.pos] == ':') {
		d.pos++
	}
	name := d.buf[start:d.pos]
	if name == "" {
		return Term{}, d.errf("expected term, found %q", d.buf[d.pos:])
	}
	iri, err := d.prefixes.Expand(name)
	if err != nil {
		return Term{}, d.errf("%v", err)
	}
	return NewIRI(iri), nil
}

// parseLiteral parses a quoted literal with escapes (UnescapeLiteral) and
// an optional datatype or language suffix.
func (d *Decoder) parseLiteral() (Term, error) {
	val, n, err := UnescapeLiteral(d.buf[d.pos+1:])
	d.pos += 1 + n
	if err != nil {
		return Term{}, d.errf("%v", err)
	}
	// Optional datatype / language suffixes.
	if d.pos < len(d.buf) && d.buf[d.pos] == '@' {
		d.pos++
		start := d.pos
		for d.pos < len(d.buf) && (isNameByte(d.buf[d.pos]) || d.buf[d.pos] == '-') {
			d.pos++
		}
		if d.pos == start {
			return Term{}, d.errf("empty language tag")
		}
		return NewLangLiteral(val, d.buf[start:d.pos]), nil
	}
	if strings.HasPrefix(d.buf[d.pos:], "^^") {
		d.pos += 2
		dt, err := d.parseTerm()
		if err != nil {
			return Term{}, err
		}
		if !dt.IsIRI() {
			return Term{}, d.errf("datatype must be an IRI, got %v", dt)
		}
		return NewTypedLiteral(val, dt.Value), nil
	}
	return NewLiteral(val), nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '_' || c == '-' || c == '.' || c == '%' || c == '/' || c == '#'
}

// Encoder writes triples in N-Triples syntax.
type Encoder struct {
	w   *bufio.Writer
	err error
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: bufio.NewWriter(w)} }

// Encode writes one triple.
func (e *Encoder) Encode(t Triple) error {
	if e.err != nil {
		return e.err
	}
	_, e.err = e.w.WriteString(t.String() + "\n")
	return e.err
}

// Flush flushes buffered output.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// ParseString parses a complete document held in a string.
func ParseString(src string) ([]Triple, error) {
	return NewDecoder(strings.NewReader(src)).DecodeAll()
}
