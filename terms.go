package amber

import "repro/internal/rdf"

// Term is one RDF term of a query solution: an IRI, a blank node, or a
// typed literal. Kind discriminates; Value holds the IRI text, the blank
// label (with its "_:" prefix), or the literal's lexical form; Datatype
// and Lang carry a literal's type annotation (at most one is non-empty —
// a plain literal has neither and denotes an xsd:string).
//
// Term is an alias of the engine's internal term type, so terms returned
// by queries can be passed straight back into Mutate via Triple.
type Term = rdf.Term

// Triple is one RDF statement, as accepted by DB.Mutate.
type Triple = rdf.Triple

// TermKind discriminates the kinds of Term.
type TermKind = rdf.TermKind

// Term kinds.
const (
	// IRI is an Internationalized Resource Identifier.
	IRI = rdf.IRI
	// Literal is a typed literal.
	Literal = rdf.Literal
	// Blank is a blank node.
	Blank = rdf.Blank
)

// Term constructors, re-exported for building triples and comparing
// query results.
var (
	// NewIRI returns an IRI term.
	NewIRI = rdf.NewIRI
	// NewLiteral returns a plain (xsd:string) literal term.
	NewLiteral = rdf.NewLiteral
	// NewTypedLiteral returns a literal with an explicit datatype IRI.
	NewTypedLiteral = rdf.NewTypedLiteral
	// NewLangLiteral returns a language-tagged literal.
	NewLangLiteral = rdf.NewLangLiteral
	// NewBlank returns a blank-node term.
	NewBlank = rdf.NewBlank
)

// Binding is one solution row: the projected variables in SELECT order,
// each bound to a Term or explicitly unbound (a variable that does not
// occur in the matched UNION branch). The zero value is an empty row.
//
// A Binding is immutable and remains valid after the query finishes.
type Binding struct {
	vars  []string       // projection, shared across rows
	index map[string]int // name → position, shared across rows
	terms []Term         // parallel to vars; zero Term = unbound
}

// Vars returns the projected variable names in SELECT order. The slice
// is shared — callers must not modify it.
func (b Binding) Vars() []string { return b.vars }

// Len returns the number of projected variables.
func (b Binding) Len() int { return len(b.vars) }

// Get returns the term bound to the named variable. ok is false when the
// variable is unbound in this row (or not projected at all), so an
// unbound variable is distinguishable from a literal whose lexical form
// is empty.
func (b Binding) Get(name string) (t Term, ok bool) {
	i, found := b.index[name]
	if !found {
		return Term{}, false
	}
	return b.At(i)
}

// Bound reports whether the named variable is bound in this row.
func (b Binding) Bound(name string) bool {
	_, ok := b.Get(name)
	return ok
}

// At returns the term at projection position i; ok is false when the
// variable is unbound in this row.
func (b Binding) At(i int) (t Term, ok bool) {
	if i < 0 || i >= len(b.terms) {
		return Term{}, false
	}
	t = b.terms[i]
	return t, !t.IsZero()
}

// Map materializes the row as a name → Term map, omitting unbound
// variables. Each call allocates a fresh map.
func (b Binding) Map() map[string]Term {
	m := make(map[string]Term, len(b.vars))
	for i, v := range b.vars {
		if t := b.terms[i]; !t.IsZero() {
			m[v] = t
		}
	}
	return m
}
