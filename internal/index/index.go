// Package index builds and serves the three offline index structures of the
// AMbER paper (Section 4): the attribute inverted index A, the vertex
// signature (synopsis) index S backed by an R-tree, and the vertex
// neighbourhood index N — the inverted lists of the per-vertex OTILs for
// incoming (N+) and outgoing (N−) edges. The ensemble I := {A, S, N} is
// what the online matching procedure probes.
package index

import (
	"slices"
	"sort"

	"repro/internal/dict"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rtree"
)

// Direction selects which side of a vertex's edges an index probe concerns.
type Direction uint8

const (
	// Incoming is the paper's '+': edges directed towards the vertex.
	Incoming Direction = iota
	// Outgoing is the paper's '−': edges directed away from the vertex.
	Outgoing
)

// String reports the paper's sign notation.
func (d Direction) String() string {
	if d == Incoming {
		return "+"
	}
	return "-"
}

// AttributeIndex is the inverted list A: for each attribute id, the sorted
// list of data vertices carrying it (Section 4.1).
type AttributeIndex struct {
	lists [][]dict.VertexID // indexed by AttrID
}

// BuildAttributeIndex scans the graph's vertex attributes.
func BuildAttributeIndex(g *multigraph.Graph) *AttributeIndex {
	lists := make([][]dict.VertexID, g.NumAttrs())
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(dict.VertexID(v)) {
			lists[a] = append(lists[a], dict.VertexID(v))
		}
	}
	// Vertices are scanned in ascending order, so lists are already sorted.
	return &AttributeIndex{lists: lists}
}

// Vertices returns the sorted list of vertices carrying attribute a. The
// returned slice must not be modified.
func (ai *AttributeIndex) Vertices(a dict.AttrID) []dict.VertexID {
	if int(a) >= len(ai.lists) {
		return nil
	}
	return ai.lists[a]
}

// Candidates returns CᴬU: the vertices carrying every attribute in attrs.
// A nil attrs yields nil — callers only probe when attributes exist.
func (ai *AttributeIndex) Candidates(attrs []dict.AttrID) []dict.VertexID {
	lists := make([][]dict.VertexID, len(attrs))
	for i, a := range attrs {
		if lists[i] = ai.Vertices(a); len(lists[i]) == 0 {
			return nil
		}
	}
	return otil.IntersectAll(lists)
}

// Entries reports the total number of postings (for Table 5 size
// accounting).
func (ai *AttributeIndex) Entries() int {
	n := 0
	for _, l := range ai.lists {
		n += len(l)
	}
	return n
}

// SignatureIndex is the synopsis R-tree S (Section 4.2).
type SignatureIndex struct {
	tree *rtree.Tree
}

// BuildSignatureIndex computes every vertex synopsis and bulk-loads the
// R-tree.
func BuildSignatureIndex(g *multigraph.Graph) *SignatureIndex {
	n := g.NumVertices()
	points := make([]rtree.Point, n)
	ids := make([]uint32, n)
	for v := 0; v < n; v++ {
		points[v] = rtree.Point(g.VertexSynopsis(dict.VertexID(v)))
		ids[v] = uint32(v)
	}
	return &SignatureIndex{tree: rtree.BulkLoad(points, ids)}
}

// Candidates returns CˢU, sorted ascending: every data vertex whose synopsis
// dominates the query synopsis q (which callers must have passed through
// Synopsis.AsQuery). Per Lemma 1 this is a superset of all true matches.
func (si *SignatureIndex) Candidates(q multigraph.Synopsis) []dict.VertexID {
	ids := si.tree.CollectDominating(rtree.Point(q))
	out := make([]dict.VertexID, len(ids))
	for i, id := range ids {
		out[i] = dict.VertexID(id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len reports the number of indexed synopses.
func (si *SignatureIndex) Len() int { return si.tree.Len() }

// Bytes reports the size of S's level arrays (for Table 5 size
// accounting): a 36-byte entry per synopsis and per node above the leaves.
func (si *SignatureIndex) Bytes() int64 { return si.tree.Bytes() }

// NeighborhoodIndex is N: per vertex and direction, the inverted lists of
// an OTIL (Section 4.3) — the edge types on that side of the vertex in
// ascending order, each with the ascending list of neighbours whose
// multi-edge contains it. The trie half of the OTIL is not stored: every
// probe is answered from the inverted lists alone (otil.Trie keeps the
// trie walk as the reference implementation for tests).
type NeighborhoodIndex struct {
	in  sideLists // N+: incoming multi-edges
	out sideLists // N−: outgoing multi-edges
}

// sideLists holds one direction of N for all vertices in four flat
// arrays: vertex v owns entries start[v]..start[v+1] of types/off, and
// entry e's neighbour list is ids[off[e]:off[e+1]]. Offsets are 32-bit: a
// posting is one stored (vertex, neighbour, type) edge, of which the
// adjacency it is built from holds fewer than 2³² long before memory
// runs out.
type sideLists struct {
	start []uint32
	types []dict.EdgeType
	off   []uint32
	ids   []dict.VertexID
}

// of slices vertex v's inverted lists out of the flat arrays.
func (sl *sideLists) of(v dict.VertexID) otil.Postings {
	lo, hi := sl.start[v], sl.start[v+1]
	return otil.Postings{Types: sl.types[lo:hi], Off: sl.off[lo : hi+1], IDs: sl.ids}
}

// buildSide lays out one direction of N straight from the adjacency:
// adj(v) is sorted by neighbour and every multi-edge is sorted and
// duplicate-free, so scattering each (neighbour, type) pair to its type's
// list in adjacency order yields ascending duplicate-free lists with no
// sort. next[t] is per-vertex scratch: first the list length of type t,
// then the write cursor into ids; it is zero again after each vertex.
func buildSide(g *multigraph.Graph, dir Direction) sideLists {
	adj := func(v dict.VertexID) multigraph.Adjacency {
		if dir == Incoming {
			return g.In(v)
		}
		return g.Out(v)
	}
	n := g.NumVertices()
	next := make([]uint32, g.NumEdgeTypes())
	// Size the arrays exactly: next[t] == v+1 marks type t as already
	// counted for vertex v.
	entries, postings := 0, 0
	for v := 0; v < n; v++ {
		ts := adj(dict.VertexID(v)).AllTypes()
		postings += len(ts)
		for _, t := range ts {
			if next[t] != uint32(v+1) {
				next[t] = uint32(v + 1)
				entries++
			}
		}
	}
	clear(next)
	sl := sideLists{
		start: make([]uint32, n+1),
		types: make([]dict.EdgeType, 0, entries),
		off:   make([]uint32, 0, entries+1),
		ids:   make([]dict.VertexID, postings),
	}
	var seen []dict.EdgeType
	cursor := uint32(0)
	for v := 0; v < n; v++ {
		sl.start[v] = uint32(len(sl.types))
		nbs := adj(dict.VertexID(v))
		seen = seen[:0]
		for _, t := range nbs.AllTypes() {
			if next[t] == 0 {
				seen = append(seen, t)
			}
			next[t]++
		}
		slices.Sort(seen)
		for _, t := range seen {
			sl.types = append(sl.types, t)
			sl.off = append(sl.off, cursor)
			cursor, next[t] = cursor+next[t], cursor
		}
		for i := 0; i < nbs.Len(); i++ {
			for _, t := range nbs.Types(i) {
				sl.ids[next[t]] = nbs.V(i)
				next[t]++
			}
		}
		for _, t := range seen {
			next[t] = 0
		}
	}
	sl.start[n] = uint32(len(sl.types))
	sl.off = append(sl.off, cursor)
	return sl
}

// BuildNeighborhoodIndex constructs N+ and N− from the graph adjacency.
func BuildNeighborhoodIndex(g *multigraph.Graph) *NeighborhoodIndex {
	return &NeighborhoodIndex{in: buildSide(g, Incoming), out: buildSide(g, Outgoing)}
}

// Neighbors implements the paper's N probe: given matched data vertex v,
// a direction, and a multi-edge T′ (sorted, duplicate-free), return
//
//	dir=Incoming: {v′ | (v′,v) ∈ E ∧ T′ ⊆ LE(v′,v)}
//	dir=Outgoing: {v′ | (v,v′) ∈ E ∧ T′ ⊆ LE(v,v′)}
//
// sorted ascending. A single-type probe returns the stored list itself:
// the result may alias the index and must not be modified.
func (ni *NeighborhoodIndex) Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID {
	sl := &ni.out
	if dir == Incoming {
		sl = &ni.in
	}
	if int(v) >= len(sl.start)-1 {
		return nil
	}
	return sl.of(v).Lookup(types)
}

// Bytes reports the size of N's arrays (for Table 5 size accounting): per
// direction a 4-byte posting per (vertex, neighbour, type), an 8-byte
// (type, offset) entry per distinct (vertex, type) and a 4-byte start per
// vertex.
func (ni *NeighborhoodIndex) Bytes() int64 {
	n := 0
	for _, sl := range []*sideLists{&ni.in, &ni.out} {
		n += len(sl.start) + len(sl.types) + len(sl.off) + len(sl.ids)
	}
	return 4 * int64(n)
}

// Cardinalities are per-edge-type occurrence counts gathered while the
// ensemble is built. They are the data statistics the cost-based query
// planner (internal/plan) consumes: together with AttributeIndex list
// lengths and neighbourhood-trie probes they let the planner estimate
// candidate-set sizes before any matching happens.
type Cardinalities struct {
	// OutVertices[t] and InVertices[t] count the vertices with at least
	// one outgoing (resp. incoming) multi-edge whose label set contains
	// edge type t.
	OutVertices, InVertices []int
	// Edges[t] counts the directed vertex pairs whose multi-edge label
	// set contains edge type t.
	Edges []int
	// NumVertices mirrors the graph's vertex count (the estimate ceiling).
	NumVertices int
}

// VerticesWith reports how many vertices have at least one edge of type t
// on the given side. Unknown types report zero.
func (c *Cardinalities) VerticesWith(dir Direction, t dict.EdgeType) int {
	lst := c.OutVertices
	if dir == Incoming {
		lst = c.InVertices
	}
	if int(t) >= len(lst) {
		return 0
	}
	return lst[t]
}

// Fanout estimates how many neighbours a single probe of direction dir at
// a bound vertex returns for edge type t: the average multi-edge count per
// vertex that has any such edge. Unknown types report zero.
func (c *Cardinalities) Fanout(dir Direction, t dict.EdgeType) float64 {
	if int(t) >= len(c.Edges) {
		return 0
	}
	src := c.VerticesWith(dir, t)
	if src == 0 {
		return 0
	}
	return float64(c.Edges[t]) / float64(src)
}

// BuildCardinalities scans the adjacency once per direction.
func BuildCardinalities(g *multigraph.Graph) *Cardinalities {
	nT := g.NumEdgeTypes()
	c := &Cardinalities{
		OutVertices: make([]int, nT),
		InVertices:  make([]int, nT),
		Edges:       make([]int, nT),
		NumVertices: g.NumVertices(),
	}
	// stamp[t] == v+1 marks that vertex v was already counted for type t,
	// so multi-edges to distinct neighbours count the vertex only once.
	stamp := make([]int, nT)
	for v := 0; v < g.NumVertices(); v++ {
		for _, t := range g.Out(dict.VertexID(v)).AllTypes() {
			c.Edges[t]++
			if stamp[t] != v+1 {
				stamp[t] = v + 1
				c.OutVertices[t]++
			}
		}
	}
	for i := range stamp {
		stamp[i] = 0
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, t := range g.In(dict.VertexID(v)).AllTypes() {
			if stamp[t] != v+1 {
				stamp[t] = v + 1
				c.InVertices[t]++
			}
		}
	}
	return c
}

// Reader is the probe surface the online stage (internal/plan,
// internal/engine) matches against. The canonical implementation is
// GraphReader — a frozen graph plus its ensemble — but a mutation
// overlay (internal/delta) implements the same surface over base +
// delta, which is how live updates reach the engine without rebuilding
// the ensemble per write.
//
// Contract: every returned vertex list is sorted ascending and must not
// be modified — a list may alias index storage (a single-type Neighbors
// probe returns the stored inverted list itself) and is shared with every
// other reader of the generation. SignatureCandidates may over-approximate
// (Lemma 1 — the engine verifies every query multi-edge with exact probes
// later); all other probes are exact.
type Reader interface {
	// SignatureCandidates returns a superset of the vertices whose
	// signature can embed the query synopsis q (already in AsQuery form).
	SignatureCandidates(q multigraph.Synopsis) []dict.VertexID
	// Neighbors is the N probe: neighbours of v on side dir whose
	// multi-edge label set contains every type in types.
	Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID
	// AttrCandidates returns the vertices carrying every attribute in
	// attrs (nil when attrs is empty).
	AttrCandidates(attrs []dict.AttrID) []dict.VertexID
	// HasAttrs reports whether v carries every attribute in attrs
	// (sorted ascending).
	HasAttrs(v dict.VertexID, attrs []dict.AttrID) bool
	// VertexAttrs returns v's sorted attribute ids (the paper's LV(v)).
	// The result must not be modified.
	VertexAttrs(v dict.VertexID) []dict.AttrID
	// HasEdgeTypes reports whether the edge from→to exists with a label
	// set containing every type in types (sorted ascending).
	HasEdgeTypes(from, to dict.VertexID, types []dict.EdgeType) bool
	// Cardinalities exposes the planner statistics (may be nil).
	Cardinalities() *Cardinalities
}

// GraphReader adapts a frozen graph and its index ensemble to the Reader
// probe surface. The zero value is not usable; both fields must be set.
type GraphReader struct {
	G  *multigraph.Graph
	Ix *Index
}

// NewReader bundles a graph with its ensemble.
func NewReader(g *multigraph.Graph, ix *Index) GraphReader {
	return GraphReader{G: g, Ix: ix}
}

// SignatureCandidates probes the R-tree S.
func (r GraphReader) SignatureCandidates(q multigraph.Synopsis) []dict.VertexID {
	return r.Ix.S.Candidates(q)
}

// Neighbors probes the neighbourhood index N.
func (r GraphReader) Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID {
	return r.Ix.N.Neighbors(v, dir, types)
}

// AttrCandidates probes the inverted index A.
func (r GraphReader) AttrCandidates(attrs []dict.AttrID) []dict.VertexID {
	return r.Ix.A.Candidates(attrs)
}

// HasAttrs checks the graph's attribute sets.
func (r GraphReader) HasAttrs(v dict.VertexID, attrs []dict.AttrID) bool {
	return r.G.HasAttrs(v, attrs)
}

// VertexAttrs returns the graph's attribute set of v.
func (r GraphReader) VertexAttrs(v dict.VertexID) []dict.AttrID {
	return r.G.Attrs(v)
}

// HasEdgeTypes checks the graph's adjacency.
func (r GraphReader) HasEdgeTypes(from, to dict.VertexID, types []dict.EdgeType) bool {
	return r.G.HasEdgeTypes(from, to, types)
}

// Cardinalities exposes the planner statistics.
func (r GraphReader) Cardinalities() *Cardinalities { return r.Ix.Card }

// Index is the ensemble I := {A, S, N} plus the cardinality statistics
// gathered alongside it.
type Index struct {
	A *AttributeIndex
	S *SignatureIndex
	N *NeighborhoodIndex
	// Card holds per-edge-type cardinalities for the cost-based planner.
	Card *Cardinalities
}

// Build constructs all three indexes and the planner statistics for g.
func Build(g *multigraph.Graph) *Index {
	return &Index{
		A:    BuildAttributeIndex(g),
		S:    BuildSignatureIndex(g),
		N:    BuildNeighborhoodIndex(g),
		Card: BuildCardinalities(g),
	}
}
