// Package multigraph implements the directed, vertex-attributed data
// multigraph G of the AMbER paper (Definition 1), built from an RDF
// tripleset by the four transformation protocols of Section 2.1.1:
//
//   - a subject is always a vertex;
//   - a predicate is always an edge (type);
//   - an object is a vertex only when it is an IRI;
//   - a literal object is folded, together with its predicate, into a
//     vertex attribute <p, o> on the subject.
//
// The package also computes vertex signatures and their 8-field synopses
// (Section 4.2, Table 3), which feed the S index.
package multigraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// Graph is the immutable data multigraph, a fixed number of flat arrays
// whatever its size. Build one with a Builder. Vertex v's attributes are
// attrIDs[attrOff[v]:attrOff[v+1]], ascending.
//
// Dicts are the generation's dictionaries for their one writer: a
// live-update overlay over the graph interns new terms into them. The
// graph itself reads them only through terms, the snapshot Build or
// Decode took, so its counts and its encoding stay those of its own
// triples however far the overlay has grown them.
type Graph struct {
	Dicts dict.Dictionaries
	terms dict.Snapshot

	out, in side // edges v → w ("-") and w → v ("+")
	attrOff []uint32
	attrIDs []dict.AttrID

	numTriples int
}

// side is one direction in compressed sparse row form: vertex v's
// neighbours are nbr[off[v]:off[v+1]], ascending, and the multi-edge of
// entry e is types[tOff[e]:tOff[e+1]], ascending and duplicate-free.
// Offsets are 32-bit, so a side holds fewer than 2³² edge labels.
type side struct {
	off, tOff []uint32
	nbr       []dict.VertexID
	types     []dict.EdgeType
}

// of returns vertex v's view of the side.
func (s *side) of(v dict.VertexID) Adjacency {
	lo, hi := s.off[v], s.off[v+1]
	return Adjacency{nbr: s.nbr[lo:hi:hi], tOff: s.tOff[lo : hi+1], types: s.types}
}

// Adjacency is one vertex's neighbours in one direction, in ascending id
// order, each with the multi-edge connecting it. It is a view into the
// graph's arrays: it does not allocate, and nothing it returns may be
// modified.
type Adjacency struct {
	nbr   []dict.VertexID
	tOff  []uint32
	types []dict.EdgeType
}

// Len reports the number of distinct neighbours.
func (a Adjacency) Len() int { return len(a.nbr) }

// V returns the i-th neighbour.
func (a Adjacency) V(i int) dict.VertexID { return a.nbr[i] }

// Types returns the multi-edge to the i-th neighbour, ascending and
// duplicate-free.
func (a Adjacency) Types(i int) []dict.EdgeType {
	lo, hi := a.tOff[i], a.tOff[i+1]
	return a.types[lo:hi:hi]
}

// AllTypes returns the multi-edges of all the neighbours, in their order.
func (a Adjacency) AllTypes() []dict.EdgeType {
	lo, hi := a.tOff[0], a.tOff[len(a.nbr)]
	return a.types[lo:hi:hi]
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return max(len(g.out.off)-1, 0) }

// NumEdges reports the number of distinct directed vertex pairs carrying at
// least one edge type (the paper's "# Edges" in Table 4).
func (g *Graph) NumEdges() int { return len(g.out.nbr) }

// NumEdgeTypes reports |T|, the number of distinct predicates between IRIs.
func (g *Graph) NumEdgeTypes() int { return g.terms.EdgeTypes.Len() }

// NumAttrs reports |A|, the number of distinct <predicate, literal> tuples.
func (g *Graph) NumAttrs() int { return g.terms.Attrs.Len() }

// Terms returns the read handle on the graph's dictionaries that Build or
// Decode took: the terms of the graph's own triples, none an overlay
// interned since. Any goroutine may read it.
func (g *Graph) Terms() *dict.Snapshot { return &g.terms }

// NumTriples reports the number of source RDF triples.
func (g *Graph) NumTriples() int { return g.numTriples }

// Entries reports the number of distinct edge and literal triples stored.
func (g *Graph) Entries() (labels, attrs int) { return len(g.out.types), len(g.attrIDs) }

// Out returns the outgoing ("-") adjacency of v, sorted by neighbour id.
func (g *Graph) Out(v dict.VertexID) Adjacency { return g.out.of(v) }

// In returns the incoming ("+") adjacency of v, sorted by neighbour id.
func (g *Graph) In(v dict.VertexID) Adjacency { return g.in.of(v) }

// Attrs returns the sorted attribute set of v (the paper's LV(v), minus the
// implicit null attribute every vertex carries). The returned slice must
// not be modified.
func (g *Graph) Attrs(v dict.VertexID) []dict.AttrID {
	lo, hi := g.attrOff[v], g.attrOff[v+1]
	return g.attrIDs[lo:hi:hi]
}

// HasAttrs reports whether v carries every attribute in want (want must be
// sorted ascending).
func (g *Graph) HasAttrs(v dict.VertexID, want []dict.AttrID) bool {
	return ContainsTypes(g.Attrs(v), want)
}

// EdgeTypes returns the multi-edge label set LE(from, to), or nil when no
// edge exists. The returned slice must not be modified.
func (g *Graph) EdgeTypes(from, to dict.VertexID) []dict.EdgeType {
	adj := g.Out(from)
	if i, ok := slices.BinarySearch(adj.nbr, to); ok {
		return adj.Types(i)
	}
	return nil
}

// HasEdgeTypes reports whether edge from→to exists and its label set
// contains every type in want (want must be sorted ascending).
func (g *Graph) HasEdgeTypes(from, to dict.VertexID, want []dict.EdgeType) bool {
	return ContainsTypes(g.EdgeTypes(from, to), want)
}

// ContainsTypes reports whether the sorted id set have contains every
// element of the sorted id set want: edge types or attributes.
func ContainsTypes[T ~uint32](have, want []T) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i] < w {
			i++
		}
		if i >= len(have) || have[i] != w {
			return false
		}
		i++
	}
	return true
}

// Builder accumulates RDF triples and produces a Graph. The zero value is
// ready to use.
type Builder struct {
	dicts      dict.Dictionaries
	edges      []edge
	attrs      []uint64 // packed (subject, attribute) pairs
	numTriples int
}

// edge is one edge triple s → o of type t, by id.
type edge struct {
	s, o dict.VertexID
	t    dict.EdgeType
}

// Add ingests one RDF triple, applying the four transformation protocols.
// It returns an error when the triple violates the RDF model (literal
// subject or predicate).
func (b *Builder) Add(t rdf.Triple) error {
	if !t.S.IsResource() {
		return fmt.Errorf("multigraph: subject must be an IRI or blank node: %v", t)
	}
	if !t.P.IsIRI() {
		return fmt.Errorf("multigraph: predicate must be an IRI: %v", t)
	}
	if t.O.Datatype != "" && t.O.Lang != "" {
		// A literal carries at most one annotation; accepting both would
		// intern an attribute the snapshot format refuses to reload.
		return fmt.Errorf("multigraph: literal with both datatype and language tag: %v", t)
	}
	b.numTriples++
	s := b.dicts.InternVertex(t.S.Value)
	if t.O.IsLiteral() {
		b.attrs = append(b.attrs, uint64(s)<<32|uint64(b.dicts.InternAttr(t.P.Value, t.O)))
		return nil
	}
	o := b.dicts.InternVertex(t.O.Value)
	b.edges = append(b.edges, edge{s, o, b.dicts.InternEdgeType(t.P.Value)})
	return nil
}

// AddAll ingests a batch of triples, stopping at the first error.
func (b *Builder) AddAll(ts []rdf.Triple) error {
	for _, t := range ts {
		if err := b.Add(t); err != nil {
			return err
		}
	}
	return nil
}

// NumTriples reports how many triples have been added so far.
func (b *Builder) NumTriples() int { return b.numTriples }

// Build finalizes the accumulated triples into an immutable Graph: one
// sort of the edge triples and one of the attribute pairs, each emitted
// without its duplicates. It panics when the distinct edge labels or
// attributes reach 2³², which the graph's 32-bit offsets cannot address.
// The Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := b.dicts.Vertices.Len()
	g := &Graph{Dicts: b.dicts, numTriples: b.numTriples}
	slices.SortFunc(b.edges, func(x, y edge) int {
		return cmp.Or(cmp.Compare(x.s, y.s), cmp.Compare(x.o, y.o), cmp.Compare(x.t, y.t))
	})
	es := slices.Compact(b.edges)
	slices.Sort(b.attrs)
	attrs := slices.Compact(b.attrs)
	if len(es) > math.MaxUint32 || len(attrs) > math.MaxUint32 {
		panic(fmt.Sprintf("multigraph: %d edge labels or %d attributes exceed the graph's 32-bit offsets", len(es), len(attrs)))
	}
	pairs := 0
	for i := range es {
		if i == 0 || es[i].s != es[i-1].s || es[i].o != es[i-1].o {
			pairs++
		}
	}
	out := &g.out
	out.off, out.tOff = make([]uint32, n+1), make([]uint32, 0, pairs+1)
	out.nbr, out.types = make([]dict.VertexID, 0, pairs), make([]dict.EdgeType, len(es))
	for i, e := range es {
		if i == 0 || e.s != es[i-1].s || e.o != es[i-1].o {
			out.off[e.s+1]++
			out.nbr = append(out.nbr, e.o)
			out.tOff = append(out.tOff, uint32(i))
		}
		out.types[i] = e.t
	}
	out.tOff = append(out.tOff, uint32(len(es)))
	g.attrOff, g.attrIDs = make([]uint32, n+1), make([]dict.AttrID, len(attrs))
	for i, k := range attrs {
		g.attrOff[k>>32+1]++
		g.attrIDs[i] = dict.AttrID(k)
	}
	for v := 1; v <= n; v++ {
		out.off[v] += out.off[v-1]
		g.attrOff[v] += g.attrOff[v-1]
	}
	g.in = out.transpose()
	g.terms = g.Dicts.Snapshot()
	return g
}

// transpose derives the in side from the out side for Build and Decode: a
// counting sort of the out entries by target, visiting sources in
// ascending order, so every in-list comes out sorted. Each in-entry gets
// its own copy of the multi-edge, so both sides read their types in order.
func (s *side) transpose() side {
	n := len(s.off) - 1
	t := side{
		off: make([]uint32, n+1), tOff: make([]uint32, len(s.nbr)+1),
		nbr: make([]dict.VertexID, len(s.nbr)), types: make([]dict.EdgeType, len(s.types)),
	}
	for _, w := range s.nbr {
		t.off[w+1]++
	}
	for v := 1; v <= n; v++ {
		t.off[v] += t.off[v-1]
	}
	// Place every entry, parking its out-side index in tOff, then replace
	// each index by the offset of the entry's copied types.
	for v := 0; v < n; v++ {
		for e := s.off[v]; e < s.off[v+1]; e++ {
			w := s.nbr[e]
			t.nbr[t.off[w]], t.tOff[t.off[w]] = dict.VertexID(v), e
			t.off[w]++
		}
	}
	copy(t.off[1:], t.off[:n])
	t.off[0] = 0
	k := uint32(0)
	for j, e := range t.tOff[:len(t.nbr)] {
		t.tOff[j] = k
		k += uint32(copy(t.types[k:], s.types[s.tOff[e]:s.tOff[e+1]]))
	}
	t.tOff[len(t.nbr)] = k
	return t
}

// FromTriples is a convenience that builds a Graph from a triple slice.
func FromTriples(ts []rdf.Triple) (*Graph, error) {
	var b Builder
	if err := b.AddAll(ts); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
