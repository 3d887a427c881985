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
// Each direction of the adjacency is stored type-major, as the inverted
// lists of the per-vertex OTILs of Section 4.3: for every vertex, runs of
// edge types in ascending order, each with the ascending neighbours whose
// multi-edge contains the type. These runs are the neighbourhood index N;
// no other copy of the adjacency exists. MultiEdges regroups a vertex's
// runs by neighbour for the snapshot codec and the signatures. Attributes
// are stored from both ends: per vertex its ascending attributes, and per
// attribute the ascending vertices that carry it, which is the attribute
// index A of Section 4.1.
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
	"repro/internal/otil"
	"repro/internal/rdf"
)

// Graph is the immutable data multigraph, a fixed number of flat arrays
// whatever its size. Build one with a Builder. Vertex v's attributes are
// attrIDs[attrOff[v]:attrOff[v+1]], ascending; the attribute side inverts
// them: attribute a's vertices are holders[holderOff[a]:holderOff[a+1]],
// ascending.
//
// Dicts are the generation's dictionaries for their one writer: a
// live-update overlay over the graph interns new terms into them. The
// graph itself reads them only through terms, the snapshot Build or
// Decode took, so its counts and its encoding stay those of its own
// triples however far the overlay has grown them.
type Graph struct {
	Dicts dict.Dictionaries
	terms dict.Snapshot

	out, in   side // edges v → w ("-") and w → v ("+")
	attrOff   []uint32
	attrIDs   []dict.AttrID
	holderOff []uint32
	holders   []dict.VertexID

	numTriples, numEdges int
}

// side is one direction of the adjacency in type-major form, the inverted
// lists of the paper's per-vertex OTILs (Section 4.3): vertex v's edge
// types are types[start[v]:start[v+1]], ascending, and run r's neighbours
// — those whose multi-edge with v contains types[r] — are
// ids[off[r]:off[r+1]], ascending. Offsets are 32-bit, so a side holds
// fewer than 2³² edge labels.
type side struct {
	start []uint32
	types []dict.EdgeType
	off   []uint32
	ids   []dict.VertexID
}

// of returns vertex v's runs: a view into the side's arrays.
func (s *side) of(v dict.VertexID) otil.Postings {
	lo, hi := s.start[v], s.start[v+1]
	return otil.Postings{Types: s.types[lo:hi:hi], Off: s.off[lo : hi+1], IDs: s.ids}
}

// NumVertices reports |V|.
func (g *Graph) NumVertices() int { return max(len(g.out.start)-1, 0) }

// NumEdges reports the number of distinct directed vertex pairs carrying at
// least one edge type (the paper's "# Edges" in Table 4).
func (g *Graph) NumEdges() int { return g.numEdges }

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

// Bytes reports the size of the graph's arrays and of its dictionaries
// (for Table 5 size accounting): per side a 4-byte start per vertex, an
// 8-byte (type, offset) entry per run and a 4-byte id per edge label; a
// 4-byte offset per vertex and per attribute and, on each attribute side,
// a 4-byte id per (vertex, attribute) pair.
func (g *Graph) Bytes() int64 {
	n := len(g.attrOff) + len(g.attrIDs) + len(g.holderOff) + len(g.holders)
	for _, s := range []*side{&g.out, &g.in} {
		n += len(s.start) + len(s.types) + len(s.off) + len(s.ids)
	}
	return 4*int64(n) + g.terms.Bytes()
}

// Out returns the outgoing ("-") runs of v: per edge type, ascending, the
// ascending targets of v's edges of that type. The result is a view into
// the graph's arrays; nothing it returns may be modified.
func (g *Graph) Out(v dict.VertexID) otil.Postings { return g.out.of(v) }

// In returns the incoming ("+") runs of v: per edge type, ascending, the
// ascending sources of the edges of that type into v.
func (g *Graph) In(v dict.VertexID) otil.Postings { return g.in.of(v) }

// Attrs returns the sorted attribute set of v (the paper's LV(v), minus the
// implicit null attribute every vertex carries). The returned slice must
// not be modified.
func (g *Graph) Attrs(v dict.VertexID) []dict.AttrID {
	lo, hi := g.attrOff[v], g.attrOff[v+1]
	return g.attrIDs[lo:hi:hi]
}

// AttrVertices returns the ascending vertices that carry attribute a: its
// inverted list in the paper's index A. Unknown attributes have none. The
// result is a view into the graph's arrays; nothing it returns may be
// modified.
func (g *Graph) AttrVertices(a dict.AttrID) []dict.VertexID {
	if int(a) >= len(g.holderOff)-1 {
		return nil
	}
	lo, hi := g.holderOff[a], g.holderOff[a+1]
	return g.holders[lo:hi:hi]
}

// HasAttrs reports whether v carries every attribute in want (want must be
// sorted ascending).
func (g *Graph) HasAttrs(v dict.VertexID, want []dict.AttrID) bool {
	return ContainsTypes(g.Attrs(v), want)
}

// HasEdgeTypes reports whether the edge from→to carries every type in
// want: one binary search for each type's run and one in the run.
func (g *Graph) HasEdgeTypes(from, to dict.VertexID, want []dict.EdgeType) bool {
	out := g.Out(from)
	for _, t := range want {
		if !otil.ContainsSorted(out.List(t), to) {
			return false
		}
	}
	return true
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
// ready to use. AddEdge and AddAttr take ids its caller interned in Dicts.
type Builder struct {
	Dicts dict.Dictionaries
	edges []edge
	attrs []uint64 // packed (subject, attribute) pairs
}

// edge is one edge triple s → o of type t, by id.
type edge struct {
	s, o dict.VertexID
	t    dict.EdgeType
}

// Validate checks a triple against the RDF model: an IRI or blank subject,
// an IRI predicate, and at most one of a literal's datatype and language.
func Validate(t rdf.Triple) error {
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
	return nil
}

// Add ingests one RDF triple, applying the four transformation protocols:
// it validates it and interns its subject, object, then type or attribute.
func (b *Builder) Add(t rdf.Triple) error {
	if err := Validate(t); err != nil {
		return err
	}
	s := b.Dicts.InternVertex(t.S.Value)
	if t.O.IsLiteral() {
		b.AddAttr(s, b.Dicts.InternAttr(t.P.Value, t.O))
	} else {
		o := b.Dicts.InternVertex(t.O.Value)
		b.AddEdge(s, o, b.Dicts.InternEdgeType(t.P.Value))
	}
	return nil
}

// AddEdge adds the edge triple s → o of type t.
func (b *Builder) AddEdge(s, o dict.VertexID, t dict.EdgeType) {
	b.edges = append(b.edges, edge{s, o, t})
}

// AddAttr adds the attribute triple that puts a on s.
func (b *Builder) AddAttr(s dict.VertexID, a dict.AttrID) {
	b.attrs = append(b.attrs, uint64(s)<<32|uint64(a))
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

// Build finalizes the accumulated triples into an immutable Graph: one
// sort of the edge triples and one of the attribute pairs, each emitted
// without its duplicates. It panics when the distinct edge labels or
// attributes reach 2³², which the graph's 32-bit offsets cannot address.
// The Builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	n := b.Dicts.Vertices.Len()
	g := &Graph{Dicts: b.Dicts, numTriples: len(b.edges) + len(b.attrs)}
	slices.SortFunc(b.edges, func(x, y edge) int {
		return cmp.Or(cmp.Compare(x.t, y.t), cmp.Compare(x.s, y.s), cmp.Compare(x.o, y.o))
	})
	es := slices.Compact(b.edges)
	slices.Sort(b.attrs)
	attrs := slices.Compact(b.attrs)
	if len(es) > math.MaxUint32 || len(attrs) > math.MaxUint32 {
		panic(fmt.Sprintf("multigraph: %d edge labels or %d attributes exceed the graph's 32-bit offsets", len(es), len(attrs)))
	}
	g.layout(n, es, nil)
	g.allocAttrs(n, b.Dicts.Attrs.Len(), len(attrs))
	for _, k := range attrs {
		g.attrOff[k>>32+1]++
		g.attrIDs = append(g.attrIDs, dict.AttrID(k))
	}
	for v := 1; v <= n; v++ {
		g.attrOff[v] += g.attrOff[v-1]
	}
	g.invertAttrs()
	g.terms = g.Dicts.Snapshot()
	return g
}

// allocAttrs allocates the offsets of both attribute sides, for n vertices
// and nA attributes, as one array, and room for k attribute ids.
func (g *Graph) allocAttrs(n, nA, k int) {
	off := make([]uint32, n+1+nA+1)
	g.attrOff, g.holderOff = off[:n+1:n+1], off[n+1:]
	g.attrIDs = make([]dict.AttrID, 0, k)
}

// invertAttrs fills the attribute side from the vertex side, for Build and
// Decode, by a counting sort: the first pass counts each attribute's
// vertices, the second places them, visiting vertices in ascending order
// so that each list is written ascending. holderOff[a] serves as a's
// cursor and is shifted back afterwards.
func (g *Graph) invertAttrs() {
	off, nA := g.holderOff, len(g.holderOff)-1
	for _, a := range g.attrIDs {
		off[a+1]++
	}
	for a := 1; a <= nA; a++ {
		off[a] += off[a-1]
	}
	g.holders = make([]dict.VertexID, len(g.attrIDs))
	for v := range len(g.attrOff) - 1 {
		for _, a := range g.Attrs(dict.VertexID(v)) {
			g.holders[off[a]] = dict.VertexID(v)
			off[a]++
		}
	}
	copy(off[1:], off[:nA])
	off[0] = 0
}

// layout fills both sides and the pair count from the graph's distinct
// edges in (type, source, target) order, for Build and Decode. Both sides
// share 2n+1 entries of scratch, allocated unless the caller passes them.
func (g *Graph) layout(n int, es []edge, scratch []uint32) {
	if len(scratch) < 2*n+1 {
		scratch = make([]uint32, 2*n+1)
	}
	g.out = fill(n, es, false, scratch)
	g.in = fill(n, es, true, scratch)
	seen := scratch[:n] // seen[w] == v+1: pair v→w is counted
	clear(seen)
	for v := range n {
		for _, w := range g.out.ids[g.out.off[g.out.start[v]]:g.out.off[g.out.start[v+1]]] {
			if seen[w] != uint32(v+1) {
				seen[w] = uint32(v + 1)
				g.numEdges++
			}
		}
	}
}

// fill lays out one side by a stable counting sort of the edges, given in
// (type, source, target) order, by the vertex the side is read from: the
// source for out, the target for in. Each vertex's edges then arrive in
// (type, neighbour) order, so its runs and their ascending lists are
// written as they come, with no further sort. The first pass counts each
// vertex's labels and runs, the second places them; seen[v] == t+1 marks
// v's run of type t as begun, which works because types never decrease.
func fill(n int, es []edge, in bool, scratch []uint32) side {
	at, seen := scratch[:n+1], scratch[n+1:2*n+1] // at: per-vertex label counts, then write cursors
	clear(at)
	clear(seen)
	s := side{start: make([]uint32, n+1)}
	for _, e := range es {
		v := e.s
		if in {
			v = e.o
		}
		at[v+1]++
		if seen[v] != uint32(e.t)+1 {
			seen[v] = uint32(e.t) + 1
			s.start[v+1]++
		}
	}
	for v := 1; v <= n; v++ {
		s.start[v] += s.start[v-1]
		at[v] += at[v-1]
	}
	runs := s.start[n]
	s.types, s.off, s.ids = make([]dict.EdgeType, runs), make([]uint32, runs+1), make([]dict.VertexID, len(es))
	clear(seen)
	// start[v] serves as v's run cursor and is shifted back afterwards.
	for _, e := range es {
		v, w := e.s, e.o
		if in {
			v, w = w, v
		}
		if seen[v] != uint32(e.t)+1 {
			seen[v] = uint32(e.t) + 1
			r := s.start[v]
			s.types[r], s.off[r] = e.t, at[v]
			s.start[v]++
		}
		s.ids[at[v]] = w
		at[v]++
	}
	copy(s.start[1:], s.start[:n])
	s.start[0] = 0
	s.off[runs] = uint32(len(es))
	return s
}

// FromTriples is a convenience that builds a Graph from a triple slice.
func FromTriples(ts []rdf.Triple) (*Graph, error) {
	var b Builder
	if err := b.AddAll(ts); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
