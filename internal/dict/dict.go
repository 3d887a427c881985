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
//
// Layout. No dictionary holds a Go map or a pointer per entry. The strings
// of Mv and Me, and the lexical forms of Ma, are copied into append-only
// byte arenas that grow in 64 KiB chunks (or are allocated once, at their
// exact size, when a snapshot is decoded) and are never moved or
// overwritten, so Value returns views into them without allocating. Each
// id has one packed 8-byte location (arena offset and length). An
// attribute is a fixed-size record: that location plus the ids of its
// predicate, datatype and language tag in a name table inside Ma, so each
// predicate is stored once; Me keeps its own ids, which are the synopsis
// alphabet and the snapshot's order. Lookup hashes the key with
// hash/maphash, under a seed fixed before the dictionary is first read,
// into an open-addressing table of atomic 32-bit slots kept at most three
// quarters full, and probes linearly. A slot holds id+1 and, in the bits
// the table's size leaves free, a tag from the key's hash, so a lookup
// that misses rarely reads anything but the table.
//
// One writer, many snapshots. A dictionary has one writer; readers read
// a Snapshot (or the Strings and Attrs handles inside it), a copy of
// the dictionary's array headers taken by the writer. Interning after a
// snapshot never writes memory the snapshot reads, with one exception: a
// new key may fill a table slot the snapshot's probes pass, which is why
// slots are atomic words, and why a probe skips ids at or above the
// snapshot's length. Everything else the writer appends beyond every
// published length or into fresh arrays: table growth, a new arena chunk
// and a longer location, record or posting-list slice all leave the old
// arrays as they were. So a snapshot answers exactly as the dictionary
// did when it was taken, however far the writer has gone since. This is
// what lets a generation's live-update overlay intern new terms into the
// very dictionaries its base was built with, while readers of older
// views keep their id bounds.
package dict

import (
	"fmt"
	"hash/maphash"
	"iter"
	"math/bits"
	"slices"
	"sync/atomic"

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

// Strings is a read handle on a StringDict: the dictionary as it stood
// when StringDict.Snapshot took it. Its methods write nothing, so any
// number of goroutines may read one, also while the writer interns on.
type Strings struct {
	arena
	locs []loc
	ids  table
}

// StringDict is a bidirectional string↔dense-id dictionary. The strings
// live in an append-only byte arena and each id has one packed location,
// so a dictionary is a fixed handful of pointer-free arrays whatever its
// size. Lookup probes an open-addressing table of ids, hashed with a seed
// fixed before the first intern or snapshot.
// The zero value is ready to use. Its read methods are those of Strings,
// for its writer; other goroutines read a Snapshot.
type StringDict struct{ Strings }

// Snapshot returns a read handle on the dictionary as it stands. Later
// interns never change what the handle reads (see the package doc).
func (d *StringDict) Snapshot() Strings {
	d.ids.fixSeed()
	return d.Strings
}

// Intern returns the id for s, assigning the next dense id on first sight.
// A new key is copied into the arena, so the dictionary never pins the
// buffer s was cut from (an N-Triples line, a snapshot body).
func (d *StringDict) Intern(s string) uint32 {
	d.fit(len(d.locs) + 1)
	h, id, at, ok := d.find(s)
	if !ok {
		id = uint32(len(d.locs))
		d.ids.put(at, h, id)
		d.locs = append(d.locs, d.add(s))
	}
	return id
}

// Reserve makes room for n more strings, so interning a known count does
// not regrow the location slice or the table.
func (d *StringDict) Reserve(n int) {
	d.locs = grow(d.locs, n)
	d.fit(len(d.locs) + n)
}

// ReserveBytes makes room for n more string bytes in one allocation, so
// strings whose total length is known are all copied into it.
func (d *StringDict) ReserveBytes(n int) { d.reserve(n) }

func (d *StringDict) fit(n int) {
	d.ids.fit(n, len(d.locs), func(id int) uint64 { return maphash.String(d.ids.seed, d.get(d.locs[id])) })
}

// find looks s up under its hash h; see table.find. Ids at or above the
// handle's length belong to later interns and never match.
func (d *Strings) find(s string) (h uint64, id uint32, at int, ok bool) {
	h = maphash.String(d.ids.seed, s)
	id, at, ok = d.ids.find(h, func(id uint32) bool { return int(id) < len(d.locs) && d.get(d.locs[id]) == s })
	return h, id, at, ok
}

// Lookup returns the id for s without interning.
func (d *Strings) Lookup(s string) (uint32, bool) {
	if len(d.locs) == 0 {
		return 0, false
	}
	_, id, _, ok := d.find(s)
	return id, ok
}

// Value returns the string for id, a view into the arena that later
// interns never change; it panics on out-of-range ids, which indicate a
// programming error rather than bad input.
func (d *Strings) Value(id uint32) string {
	if int(id) >= len(d.locs) {
		panic(fmt.Sprintf("dict: id %d out of range (len %d)", id, len(d.locs)))
	}
	return d.get(d.locs[id])
}

// Len reports the number of interned strings.
func (d *Strings) Len() int { return len(d.locs) }

// Bytes is the dictionary's analytic size: its string bytes, plus 12
// bytes per id for its location and one table slot. It counts lengths,
// not capacities, so equal contents report equal sizes however they were
// built.
func (d *Strings) Bytes() int64 { return int64(d.bytes) + 12*int64(len(d.locs)) }

// table is an open-addressing hash table of ids, shared by the
// dictionaries. A key's probe sequence runs linearly from the slot its
// hash picks. A slot holds id+1 in its low idBits bits, 0 marking it
// empty, and the low bits of the key's hash above them as a tag, so a
// probe that passes a different key's slot almost never reads that key:
// a lookup that misses reads the table alone. It is kept at most three
// quarters full. The slots are atomic because the writer fills empty
// ones that snapshots taken earlier still probe; growth fills a new
// array and leaves the old one as it was.
type table struct {
	slots  []atomic.Uint32
	idBits uint // enough bits for len(slots), so for any id+1 it holds
	seed   maphash.Seed
}

// fixSeed gives the table its seed if it has none yet. The writer calls
// it before the first growth and before every snapshot, so no reader
// ever sees the seed change.
func (t *table) fixSeed() {
	if t.seed == (maphash.Seed{}) {
		t.seed = maphash.MakeSeed()
	}
}

// fit grows the table, when needed, so that n ids fill at most three
// quarters of it, and re-places the have ids it holds by their hashes.
func (t *table) fit(n, have int, hash func(id int) uint64) {
	if 4*n <= 3*len(t.slots) {
		return
	}
	t.fixSeed()
	t.slots = make([]atomic.Uint32, max(8, 2*len(t.slots), (4*n+2)/3))
	t.idBits = uint(bits.Len(uint(len(t.slots))))
	for id := range have {
		h := hash(id)
		_, at, _ := t.find(h, func(uint32) bool { return false })
		t.put(at, h, uint32(id))
	}
}

// find returns the first id on h's probe sequence whose tag matches h and
// for which eq holds, or, when none does, the empty slot that ends the
// sequence. The table must not be empty.
func (t *table) find(h uint64, eq func(id uint32) bool) (id uint32, at int, ok bool) {
	mask, tag := uint32(1)<<t.idBits-1, uint32(h)>>t.idBits
	for i := slot(h, len(t.slots)); ; {
		e := t.slots[i].Load()
		if e == 0 {
			return 0, i, false
		}
		if e>>t.idBits == tag && eq(e&mask-1) {
			return e&mask - 1, i, true
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

// put stores id, whose key hashes to h, in the empty slot at.
func (t *table) put(at int, h uint64, id uint32) {
	t.slots[at].Store(uint32(h)>>t.idBits<<t.idBits | (id + 1))
}

// slot maps a hash to a slot in [0, n), n < 2³², by the high half of the
// hash, so table sizes need not be powers of two.
func slot(h uint64, n int) int { return int((h >> 32) * uint64(n) >> 32) }

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

// Attrs is a read handle on an AttrDict, as Strings is on a StringDict.
type Attrs struct {
	names StringDict // predicate IRIs, datatype IRIs and language tags
	lex   arena      // lexical forms
	recs  []attrRec
	ids   table
	lists [][]AttrID // per name id: the attributes with that predicate
}

// AttrDict is a bidirectional Attribute↔AttrID dictionary. Each
// attribute is a fixed-size record: its lexical form's location in a byte
// arena and the ids of its predicate, datatype and language tag in a small
// name table, so each predicate IRI is stored once. Alongside the records
// it keeps a posting list per predicate (ascending ids), which is what
// lets query translation bind literal-object variables: the candidates
// for `?x p ?lit` are exactly PredicateAttrs(p). Lookup probes an
// open-addressing table as StringDict's does.
// The zero value is ready to use; its read methods are those of Attrs.
type AttrDict struct {
	Attrs
	// listsShared is set when a snapshot holds lists, so that the next
	// new attribute copies it before changing a posting list's header.
	listsShared bool
}

type attrRec struct {
	lex            loc
	pred, dt, lang uint32 // ids in names
}

// Snapshot returns a read handle on the dictionary as it stands, as
// StringDict.Snapshot does.
func (d *AttrDict) Snapshot() Attrs {
	d.names.Snapshot()
	d.ids.fixSeed()
	d.listsShared = true
	return d.Attrs
}

// Intern returns the id for a, assigning the next dense id on first sight.
// A new tuple's strings are copied, as in StringDict.Intern.
func (d *AttrDict) Intern(a Attribute) AttrID {
	id, isNew := d.intern(a)
	if isNew {
		if d.listsShared {
			d.lists, d.listsShared = slices.Clone(d.lists), false
		}
		r := d.recs[id]
		for int(r.pred) >= len(d.lists) {
			d.lists = append(d.lists, nil)
		}
		d.lists[r.pred] = append(d.lists[r.pred], id)
	}
	return id
}

// InternAll interns the attributes seq yields, in order, as Intern does,
// and reports whether every one was new; it stops at the first that was
// not. It rebuilds the posting lists once, in one pass over the records,
// so loading a known set of attributes (a snapshot's) allocates them as
// one array rather than growing a list per predicate.
func (d *AttrDict) InternAll(seq iter.Seq[Attribute]) bool {
	allNew := true
	for a := range seq {
		if _, allNew = d.intern(a); !allNew {
			break
		}
	}
	n := d.names.Len()
	end := make([]uint32, n+1)
	for _, r := range d.recs {
		end[r.pred+1]++
	}
	for p := 1; p <= n; p++ {
		end[p] += end[p-1]
	}
	post := make([]AttrID, len(d.recs))
	for id, r := range d.recs { // end[p] walks from p's start to p+1's
		post[end[r.pred]] = AttrID(id)
		end[r.pred]++
	}
	d.lists, d.listsShared = make([][]AttrID, n), false
	for p, lo := 0, uint32(0); p < n; p++ {
		// Capped, so that a later Intern appends to a copy.
		d.lists[p], lo = post[lo:end[p]:end[p]], end[p]
	}
	return allNew
}

func (d *AttrDict) intern(a Attribute) (AttrID, bool) {
	r := attrRec{pred: d.names.Intern(a.Predicate), dt: d.names.Intern(a.Datatype), lang: d.names.Intern(a.Lang)}
	d.fit(len(d.recs) + 1)
	h, id, at, ok := d.find(r, a.Lexical)
	if ok {
		return AttrID(id), false
	}
	d.ids.put(at, h, uint32(len(d.recs)))
	r.lex = d.lex.add(a.Lexical)
	d.recs = append(d.recs, r)
	return AttrID(len(d.recs) - 1), true
}

// Reserve makes room for n more attributes, as StringDict.Reserve does.
func (d *AttrDict) Reserve(n int) {
	d.recs = grow(d.recs, n)
	d.fit(len(d.recs) + n)
}

// ReserveBytes makes room for n more bytes of lexical forms in one
// allocation, as StringDict.ReserveBytes does.
func (d *AttrDict) ReserveBytes(n int) { d.lex.reserve(n) }

// hash mixes the record's name ids into the hash of its lexical form.
func (d *Attrs) hash(r attrRec, lexical string) uint64 {
	return maphash.String(d.ids.seed, lexical) ^ (uint64(r.pred)<<32|uint64(r.dt)^uint64(r.lang)<<16)*0x9e3779b97f4a7c15
}

func (d *AttrDict) fit(n int) {
	d.ids.fit(n, len(d.recs), func(id int) uint64 { return d.hash(d.recs[id], d.lex.get(d.recs[id].lex)) })
}

// find looks up the attribute with r's names and the given lexical form
// under its hash h; see table.find and Strings.find.
func (d *Attrs) find(r attrRec, lexical string) (h uint64, id uint32, at int, ok bool) {
	h = d.hash(r, lexical)
	id, at, ok = d.ids.find(h, func(id uint32) bool {
		if int(id) >= len(d.recs) {
			return false
		}
		x := d.recs[id]
		return x.pred == r.pred && x.dt == r.dt && x.lang == r.lang && d.lex.get(x.lex) == lexical
	})
	return h, id, at, ok
}

// Lookup returns the id for a without interning.
func (d *Attrs) Lookup(a Attribute) (AttrID, bool) {
	if len(d.recs) == 0 {
		return 0, false
	}
	p, okP := d.names.Lookup(a.Predicate)
	dt, okD := d.names.Lookup(a.Datatype)
	lang, okL := d.names.Lookup(a.Lang)
	if !okP || !okD || !okL {
		return 0, false
	}
	_, id, _, ok := d.find(attrRec{pred: p, dt: dt, lang: lang}, a.Lexical)
	return AttrID(id), ok
}

// Value returns the tuple for id, whose strings are views into the
// dictionary's arenas; it panics on out-of-range ids.
func (d *Attrs) Value(id AttrID) Attribute {
	if int(id) >= len(d.recs) {
		panic(fmt.Sprintf("dict: attribute id %d out of range (len %d)", id, len(d.recs)))
	}
	r := d.recs[id]
	return Attribute{
		Predicate: d.names.Value(r.pred), Lexical: d.lex.get(r.lex),
		Datatype: d.names.Value(r.dt), Lang: d.names.Value(r.lang),
	}
}

// PredicateAttrs returns the sorted ids of every attribute whose predicate
// is pred (nil when the predicate has no literal occurrences). The slice
// is shared and must not be modified.
func (d *Attrs) PredicateAttrs(pred string) []AttrID {
	p, ok := d.names.Lookup(pred)
	if !ok || int(p) >= len(d.lists) || len(d.lists[p]) == 0 {
		return nil
	}
	l := d.lists[p]
	return l[:len(l):len(l)]
}

// Len reports the number of interned attributes.
func (d *Attrs) Len() int { return len(d.recs) }

// Bytes is the dictionary's analytic size, counted from lengths as
// Strings.Bytes is: lexical-form bytes, 32 bytes per attribute for its
// record, table slot and posting entry, and the name table.
func (d *Attrs) Bytes() int64 {
	return int64(d.lex.bytes) + 32*int64(len(d.recs)) + d.names.Bytes()
}

// Resolver is the read-only lookup surface of the three dictionaries.
// *Snapshot implements it over the dictionaries of a generation; a
// mutation overlay (internal/delta) implements it over the snapshot each
// of its views takes. Query translation and solution rendering depend
// only on this interface.
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

// Dictionaries bundles the three mapping functions of Table 2 for their
// writer. The zero value is ready to use.
type Dictionaries struct {
	Vertices  StringDict // Mv: subject/object IRI → VertexID
	EdgeTypes StringDict // Me: predicate IRI → EdgeType
	Attrs     AttrDict   // Ma: <predicate, literal> → AttrID
}

// Snapshot returns a read handle on the three dictionaries as they stand.
func (d *Dictionaries) Snapshot() Snapshot {
	return Snapshot{Vertices: d.Vertices.Snapshot(), EdgeTypes: d.EdgeTypes.Snapshot(), Attrs: d.Attrs.Snapshot()}
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

// Snapshot is a read handle on Dictionaries: the three mapping functions
// as they stood when Dictionaries.Snapshot took it, which also fixes the
// id bounds it admits. It implements Resolver.
type Snapshot struct {
	Vertices  Strings
	EdgeTypes Strings
	Attrs     Attrs
}

// LookupVertex resolves an IRI without interning (used for query constants:
// an IRI that never occurs in the data has no binding).
func (d *Snapshot) LookupVertex(iri string) (VertexID, bool) {
	id, ok := d.Vertices.Lookup(iri)
	return VertexID(id), ok
}

// LookupEdgeType resolves a predicate without interning.
func (d *Snapshot) LookupEdgeType(predicate string) (EdgeType, bool) {
	id, ok := d.EdgeTypes.Lookup(predicate)
	return EdgeType(id), ok
}

// LookupAttr resolves an attribute tuple without interning.
func (d *Snapshot) LookupAttr(predicate string, o rdf.Term) (AttrID, bool) {
	return d.Attrs.Lookup(AttributeOf(predicate, o))
}

// VertexIRI applies the inverse mapping Mv⁻¹, used to translate embeddings
// back to RDF entities (paper Section 3).
func (d *Snapshot) VertexIRI(v VertexID) string { return d.Vertices.Value(uint32(v)) }

// EdgeTypeIRI applies Me⁻¹.
func (d *Snapshot) EdgeTypeIRI(t EdgeType) string { return d.EdgeTypes.Value(uint32(t)) }

// Attr applies Ma⁻¹.
func (d *Snapshot) Attr(a AttrID) Attribute { return d.Attrs.Value(a) }

// PredicateAttrs returns the sorted attribute ids of a predicate.
func (d *Snapshot) PredicateAttrs(predicate string) []AttrID {
	return d.Attrs.PredicateAttrs(predicate)
}

// Bytes is the analytic size of the three dictionaries.
func (d *Snapshot) Bytes() int64 {
	return d.Vertices.Bytes() + d.EdgeTypes.Bytes() + d.Attrs.Bytes()
}
