// Package dict implements the three dictionary look-up tables the AMbER
// paper (Section 2.1.1, Table 2) uses to transform an RDF tripleset into a
// data multigraph:
//
//   - the vertex dictionary Mv, mapping subject/object IRIs (and blank
//     labels, which live in the "_:" namespace) to vertex ids;
//   - the edge-type dictionary Me, mapping predicate IRIs to edge-type ids;
//   - the attribute dictionary Ma, mapping <predicate, object-literal>
//     tuples to attribute ids. The literal is interned as a full typed
//     term (lexical form, datatype IRI, language tag), not a folded
//     string, so `"42"^^xsd:integer` and the plain string "42" are
//     distinct attributes and decode back to distinct terms.
//
// All dictionaries are bidirectional: identifiers are dense and start at 0,
// so the inverse mapping is a plain slice lookup.
package dict

import (
	"fmt"
	"strings"

	"repro/internal/rdf"
)

// VertexID identifies a data (or query) vertex. Identifiers are dense.
type VertexID uint32

// EdgeType identifies a predicate (edge type). Identifiers are dense and,
// per the paper's synopsis features f3/f4, their numeric value is the
// "position of the sequenced alphabet" — i.e. insertion order.
type EdgeType uint32

// AttrID identifies a <predicate, literal> attribute tuple.
type AttrID uint32

// litBindingBit tags an engine binding slot as holding an attribute id
// (a literal binding) rather than a vertex id. Vertex ids stay below it
// in practice (2³¹ vertices), so encoded literal bindings sort after all
// vertex bindings, which keeps mixed candidate lists sorted.
const litBindingBit VertexID = 1 << 31

// EncodeAttrBinding packs an attribute id into the engine's vertex-id
// binding space. See LitSat in internal/query.
func EncodeAttrBinding(a AttrID) VertexID { return litBindingBit | VertexID(a) }

// IsAttrBinding reports whether a binding slot holds an encoded attribute.
func IsAttrBinding(v VertexID) bool { return v&litBindingBit != 0 }

// AttrBinding unpacks an encoded attribute binding.
func AttrBinding(v VertexID) AttrID { return AttrID(v &^ litBindingBit) }

// StringDict is a bidirectional string↔dense-id dictionary.
// The zero value is ready to use.
type StringDict struct {
	ids    map[string]uint32
	values []string
}

// Intern returns the id for s, assigning the next dense id on first sight.
// A new key is copied, so the dictionary never pins the buffer s was cut
// from (an N-Triples line, a snapshot body).
func (d *StringDict) Intern(s string) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	s = strings.Clone(s)
	id := uint32(len(d.values))
	d.ids[s] = id
	d.values = append(d.values, s)
	return id
}

// Reserve makes room for n more strings, so interning a known count does
// not regrow the value slice or rehash the map. The map is presized only
// while the dictionary is still empty.
func (d *StringDict) Reserve(n int) {
	if d.ids == nil {
		d.ids = make(map[string]uint32, n)
	}
	d.values = grow(d.values, n)
}

// grow returns s with room for n more elements, as slices.Grow does, but
// in one allocation also when built with -race, under which slices.Grow's
// append of a made slice allocates the made slice too.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// Lookup returns the id for s without interning.
func (d *StringDict) Lookup(s string) (uint32, bool) {
	id, ok := d.ids[s]
	return id, ok
}

// Value returns the string for id; it panics on out-of-range ids, which
// indicate a programming error rather than bad input.
func (d *StringDict) Value(id uint32) string {
	if int(id) >= len(d.values) {
		panic(fmt.Sprintf("dict: id %d out of range (len %d)", id, len(d.values)))
	}
	return d.values[id]
}

// Len reports the number of interned strings.
func (d *StringDict) Len() int { return len(d.values) }

// Attribute is the <predicate, object-literal> tuple that Ma maps to an
// attribute identifier (e.g. <y:hasCapacityOf, "90000"> ↦ a0). The
// literal is kept typed: Lexical is the lexical form, Datatype the
// explicit datatype IRI (empty for plain/xsd:string literals), Lang the
// language tag (empty unless language-tagged). At most one of Datatype
// and Lang is non-empty, mirroring rdf.Term.
type Attribute struct {
	Predicate string
	Lexical   string
	Datatype  string
	Lang      string
}

// AttributeOf builds the dictionary key for a predicate and a literal
// object term. The term's Kind is not inspected — callers pass literal
// objects only. An explicit xsd:string datatype is normalized to the
// plain form here, so a programmatically built Term{Datatype: xsd:string}
// interns identically to the parser's normalized terms (and to what WAL
// replay reconstructs).
func AttributeOf(predicate string, o rdf.Term) Attribute {
	dt := o.Datatype
	if dt == rdf.XSDString {
		dt = ""
	}
	return Attribute{Predicate: predicate, Lexical: o.Value, Datatype: dt, Lang: o.Lang}
}

// Literal reconstructs the attribute's object as a typed literal term.
func (a Attribute) Literal() rdf.Term {
	return rdf.Term{Kind: rdf.Literal, Value: a.Lexical, Datatype: a.Datatype, Lang: a.Lang}
}

// String renders the tuple for diagnostics.
func (a Attribute) String() string {
	return "<" + a.Predicate + ", " + a.Literal().String() + ">"
}

// AttrDict is a bidirectional Attribute↔AttrID dictionary. Alongside the
// tuple mapping it maintains a per-predicate posting list (sorted by id),
// which is what lets query translation bind literal-object variables: the
// candidates for `?x p ?lit` are exactly PredicateAttrs(p).
// The zero value is ready to use.
type AttrDict struct {
	ids    map[Attribute]AttrID
	values []Attribute
	byPred map[string][]AttrID
}

// Intern returns the id for a, assigning the next dense id on first sight.
// A new tuple's strings are copied, as in StringDict.Intern; its predicate
// is shared with the earlier attributes of the same predicate.
func (d *AttrDict) Intern(a Attribute) AttrID {
	if id, ok := d.ids[a]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[Attribute]AttrID)
		d.byPred = make(map[string][]AttrID)
	}
	if same := d.byPred[a.Predicate]; len(same) > 0 {
		a.Predicate = d.values[same[0]].Predicate
	} else {
		a.Predicate = strings.Clone(a.Predicate)
	}
	a.Lexical, a.Datatype, a.Lang = strings.Clone(a.Lexical), strings.Clone(a.Datatype), strings.Clone(a.Lang)
	id := AttrID(len(d.values))
	d.ids[a] = id
	d.values = append(d.values, a)
	// Ids are assigned in increasing order, so per-predicate lists stay
	// sorted by construction.
	d.byPred[a.Predicate] = append(d.byPred[a.Predicate], id)
	return id
}

// Reserve makes room for n more attributes, as StringDict.Reserve does.
func (d *AttrDict) Reserve(n int) {
	if d.ids == nil {
		d.ids = make(map[Attribute]AttrID, n)
		d.byPred = make(map[string][]AttrID)
	}
	d.values = grow(d.values, n)
}

// Lookup returns the id for a without interning.
func (d *AttrDict) Lookup(a Attribute) (AttrID, bool) {
	id, ok := d.ids[a]
	return id, ok
}

// Value returns the tuple for id; it panics on out-of-range ids.
func (d *AttrDict) Value(id AttrID) Attribute {
	if int(id) >= len(d.values) {
		panic(fmt.Sprintf("dict: attribute id %d out of range (len %d)", id, len(d.values)))
	}
	return d.values[id]
}

// PredicateAttrs returns the sorted ids of every attribute whose predicate
// is pred (nil when the predicate has no literal occurrences). The slice
// is shared and must not be modified.
func (d *AttrDict) PredicateAttrs(pred string) []AttrID {
	return d.byPred[pred]
}

// Len reports the number of interned attributes.
func (d *AttrDict) Len() int { return len(d.values) }

// Resolver is the read-only lookup surface of the three dictionaries.
// *Dictionaries implements it over a frozen graph; a mutation overlay
// (internal/delta) implements it by layering its own interned entries on
// top of a base. Query translation and solution rendering depend only on
// this interface, so they work against either.
type Resolver interface {
	// LookupVertex resolves an IRI (or blank label) to its vertex id
	// without interning.
	LookupVertex(iri string) (VertexID, bool)
	// LookupEdgeType resolves a predicate IRI without interning.
	LookupEdgeType(predicate string) (EdgeType, bool)
	// LookupAttr resolves a <predicate, literal-term> tuple without
	// interning.
	LookupAttr(predicate string, o rdf.Term) (AttrID, bool)
	// VertexIRI applies the inverse mapping Mv⁻¹.
	VertexIRI(v VertexID) string
	// Attr applies the inverse mapping Ma⁻¹.
	Attr(a AttrID) Attribute
	// PredicateAttrs returns the sorted ids of the attributes carrying
	// the given predicate (nil when none). The slice must not be modified.
	PredicateAttrs(predicate string) []AttrID
}

// Dictionaries bundles the three mapping functions of Table 2.
// The zero value is ready to use.
type Dictionaries struct {
	Vertices  StringDict // Mv: subject/object IRI → VertexID
	EdgeTypes StringDict // Me: predicate IRI → EdgeType
	Attrs     AttrDict   // Ma: <predicate, literal> → AttrID
}

// InternVertex applies Mv.
func (d *Dictionaries) InternVertex(iri string) VertexID {
	return VertexID(d.Vertices.Intern(iri))
}

// InternEdgeType applies Me.
func (d *Dictionaries) InternEdgeType(predicate string) EdgeType {
	return EdgeType(d.EdgeTypes.Intern(predicate))
}

// InternAttr applies Ma for a literal object term.
func (d *Dictionaries) InternAttr(predicate string, o rdf.Term) AttrID {
	return d.Attrs.Intern(AttributeOf(predicate, o))
}

// LookupVertex resolves an IRI without interning (used for query constants:
// an IRI that never occurs in the data has no binding).
func (d *Dictionaries) LookupVertex(iri string) (VertexID, bool) {
	id, ok := d.Vertices.Lookup(iri)
	return VertexID(id), ok
}

// LookupEdgeType resolves a predicate without interning.
func (d *Dictionaries) LookupEdgeType(predicate string) (EdgeType, bool) {
	id, ok := d.EdgeTypes.Lookup(predicate)
	return EdgeType(id), ok
}

// LookupAttr resolves an attribute tuple without interning.
func (d *Dictionaries) LookupAttr(predicate string, o rdf.Term) (AttrID, bool) {
	return d.Attrs.Lookup(AttributeOf(predicate, o))
}

// VertexIRI applies the inverse mapping Mv⁻¹, used to translate embeddings
// back to RDF entities (paper Section 3).
func (d *Dictionaries) VertexIRI(v VertexID) string { return d.Vertices.Value(uint32(v)) }

// EdgeTypeIRI applies Me⁻¹.
func (d *Dictionaries) EdgeTypeIRI(t EdgeType) string { return d.EdgeTypes.Value(uint32(t)) }

// Attr applies Ma⁻¹.
func (d *Dictionaries) Attr(a AttrID) Attribute { return d.Attrs.Value(a) }

// PredicateAttrs returns the sorted attribute ids of a predicate.
func (d *Dictionaries) PredicateAttrs(predicate string) []AttrID {
	return d.Attrs.PredicateAttrs(predicate)
}
