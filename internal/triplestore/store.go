// Package triplestore implements the relational-style baseline the paper
// compares against (the x-RDF-3X / Virtuoso architecture class): RDF
// triples in one big dictionary-encoded table, exhaustively indexed with
// all six component permutations (SPO, SOP, PSO, POS, OSP, OPS), and
// SPARQL evaluation by selectivity-ordered index-nested-loop joins.
//
// The semantics match AMbER's multigraph homomorphism: variables bind only
// IRIs (never literals), so result counts are directly comparable across
// engines. Duplicate input triples are collapsed.
package triplestore

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/rdf"
)

// oid encodes an object: IRIs carry the resource id, literals the literal
// id with the litFlag bit set. The flag sits at bit 40 — well above the
// 32-bit id space yet low enough that int64(oid) stays positive, which the
// evaluator's negative-variable encoding relies on.
type oid uint64

const litFlag oid = 1 << 40

func resOID(id uint32) oid { return oid(id) }
func litOID(id uint32) oid { return oid(id) | litFlag }

// isLit reports whether the object is a literal.
func (o oid) isLit() bool { return o&litFlag != 0 }

// id returns the dictionary id.
func (o oid) id() uint32 { return uint32(o &^ litFlag) }

// enc is one dictionary-encoded triple.
type enc struct {
	S uint32
	P uint32
	O oid
}

// Store is the immutable triple store. Build one with a Builder.
type Store struct {
	res   interner // subjects and IRI objects
	lits  interner // literal objects
	preds interner // predicates

	triples []enc // deduplicated
	// perms holds the six sorted permutations as index arrays into triples.
	perms [6][]int32
}

// interner is a plain string↔dense-id table. It is kept apart from
// internal/dict so that this reference evaluator shares no dictionary code
// with the engine it is compared against.
type interner struct {
	ids    map[string]uint32
	values []string
}

func (in *interner) intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = make(map[string]uint32)
	}
	id := uint32(len(in.values))
	in.ids[s] = id
	in.values = append(in.values, s)
	return id
}

func (in *interner) lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Permutation identifiers.
const (
	permSPO = iota
	permSOP
	permPSO
	permPOS
	permOSP
	permOPS
)

// Builder accumulates triples. The zero value is ready to use.
type Builder struct {
	store   Store
	triples []enc
}

// Add ingests one RDF triple.
func (b *Builder) Add(t rdf.Triple) error {
	if !t.S.IsIRI() || !t.P.IsIRI() {
		return fmt.Errorf("triplestore: subject and predicate must be IRIs: %v", t)
	}
	s := b.store.res.intern(t.S.Value)
	p := b.store.preds.intern(t.P.Value)
	var o oid
	if t.O.IsLiteral() {
		o = litOID(b.store.lits.intern(t.O.Value))
	} else {
		o = resOID(b.store.res.intern(t.O.Value))
	}
	b.triples = append(b.triples, enc{S: s, P: p, O: o})
	return nil
}

// AddAll ingests a batch, stopping at the first error.
func (b *Builder) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := b.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// Build finalizes: deduplicates and constructs the six permutations.
func (b *Builder) Build() *Store {
	st := b.store
	// Dedup via SPO sort.
	sort.Slice(b.triples, func(i, j int) bool { return lessBy(b.triples[i], b.triples[j], permSPO) })
	st.triples = b.triples[:0]
	var prev enc
	for i, t := range b.triples {
		if i > 0 && t == prev {
			continue
		}
		st.triples = append(st.triples, t)
		prev = t
	}
	n := len(st.triples)
	for perm := 0; perm < 6; perm++ {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		p := perm
		sort.Slice(idx, func(i, j int) bool {
			return lessBy(st.triples[idx[i]], st.triples[idx[j]], p)
		})
		st.perms[perm] = idx
	}
	return &st
}

// key returns the triple's components in permutation order.
func key(t enc, perm int) (a, b, c uint64) {
	s, p, o := uint64(t.S), uint64(t.P), uint64(t.O)
	switch perm {
	case permSPO:
		return s, p, o
	case permSOP:
		return s, o, p
	case permPSO:
		return p, s, o
	case permPOS:
		return p, o, s
	case permOSP:
		return o, s, p
	default: // permOPS
		return o, p, s
	}
}

func lessBy(x, y enc, perm int) bool {
	xa, xb, xc := key(x, perm)
	ya, yb, yc := key(y, perm)
	if xa != ya {
		return xa < ya
	}
	if xb != yb {
		return xb < yb
	}
	return xc < yc
}

// NumTriples reports the deduplicated triple count.
func (s *Store) NumTriples() int { return len(s.triples) }

// FromTriples builds a store from a slice.
func FromTriples(ts []rdf.Triple) (*Store, error) {
	var b Builder
	if err := b.AddAll(ts); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// FromReader builds a store from an N-Triples reader.
func FromReader(r io.Reader) (*Store, error) {
	var b Builder
	dec := rdf.NewDecoder(r)
	for {
		t, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := b.Add(t); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// choosePerm picks the permutation whose key prefix covers the bound
// components (negative = unbound).
func choosePerm(sb, pb, ob int64) int {
	switch {
	case sb >= 0 && pb >= 0:
		return permSPO
	case sb >= 0 && ob >= 0:
		return permSOP
	case sb >= 0:
		return permSPO
	case pb >= 0 && ob >= 0:
		return permPOS
	case pb >= 0:
		return permPSO
	case ob >= 0:
		return permOSP
	default:
		return permSPO
	}
}

// permOrder returns the bound components in the permutation's key order.
func permOrder(perm int, sb, pb, ob int64) [3]int64 {
	switch perm {
	case permSPO:
		return [3]int64{sb, pb, ob}
	case permSOP:
		return [3]int64{sb, ob, pb}
	case permPSO:
		return [3]int64{pb, sb, ob}
	case permPOS:
		return [3]int64{pb, ob, sb}
	case permOSP:
		return [3]int64{ob, sb, pb}
	default: // permOPS
		return [3]int64{ob, pb, sb}
	}
}

func boundPrefix(vals [3]int64) []uint64 {
	var out []uint64
	for _, v := range vals {
		if v < 0 {
			break
		}
		out = append(out, uint64(v))
	}
	return out
}

// scan visits all triples matching the bound components (negative values
// mean unbound). fn returning false stops the scan.
func (s *Store) scan(sb, pb, ob int64, fn func(enc) bool) {
	perm := choosePerm(sb, pb, ob)
	prefix := boundPrefix(permOrder(perm, sb, pb, ob))
	lo, hi := s.prefixRange(perm, prefix)
	idx := s.perms[perm]
	for i := lo; i < hi; i++ {
		t := s.triples[idx[i]]
		// Residual checks for bound components beyond the prefix.
		if sb >= 0 && int64(t.S) != sb {
			continue
		}
		if pb >= 0 && int64(t.P) != pb {
			continue
		}
		if ob >= 0 && int64(t.O) != ob {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// estimate returns the number of triples matching the bound prefix, via two
// binary searches (the statistics RDF-3X-style join ordering relies on).
func (s *Store) estimate(sb, pb, ob int64) int {
	if sb < 0 && pb < 0 && ob < 0 {
		return len(s.triples)
	}
	perm := choosePerm(sb, pb, ob)
	prefix := boundPrefix(permOrder(perm, sb, pb, ob))
	lo, hi := s.prefixRange(perm, prefix)
	return hi - lo
}

// prefixRange finds [lo, hi) of permutation perm whose keys start with
// prefix.
func (s *Store) prefixRange(perm int, prefix []uint64) (int, int) {
	idx := s.perms[perm]
	cmp := func(i int, upper bool) bool {
		a, b, c := key(s.triples[idx[i]], perm)
		k := [3]uint64{a, b, c}
		for d, p := range prefix {
			if k[d] != p {
				return k[d] > p
			}
		}
		// Equal prefix: included by the lower bound, excluded by the upper.
		return !upper
	}
	lo := sort.Search(len(idx), func(i int) bool { return cmp(i, false) })
	hi := sort.Search(len(idx), func(i int) bool { return cmp(i, true) })
	return lo, hi
}
