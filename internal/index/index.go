// Package index builds and serves the offline index structures of the
// AMbER paper (Section 4). The ensemble I := {A, S, N} is what the online
// matching procedure probes. Only the vertex signature (synopsis) index S,
// backed by an R-tree, is built here. The attribute index A is the data
// graph's attribute side (multigraph.Graph.AttrVertices), and the vertex
// neighbourhood index N — the inverted lists of the per-vertex OTILs for
// incoming (N+) and outgoing (N−) edges — is its type-major adjacency
// (multigraph.Graph.In and Out). GraphReader probes both directly.
package index

import (
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

// Cardinalities are per-edge-type occurrence counts gathered while the
// ensemble is built. They are the data statistics the cost-based query
// planner (internal/plan) consumes: together with the lengths of A's lists
// and neighbourhood probes they let the planner estimate candidate-set
// sizes before any matching happens.
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

// BuildCardinalities reads the graph's runs: each run of a vertex is one
// (vertex, type) count and its length the pairs it adds to Edges.
func BuildCardinalities(g *multigraph.Graph) *Cardinalities {
	nT := g.NumEdgeTypes()
	c := &Cardinalities{
		OutVertices: make([]int, nT),
		InVertices:  make([]int, nT),
		Edges:       make([]int, nT),
		NumVertices: g.NumVertices(),
	}
	for v := 0; v < g.NumVertices(); v++ {
		out := g.Out(dict.VertexID(v))
		for i, t := range out.Types {
			c.Edges[t] += int(out.Off[i+1] - out.Off[i])
			c.OutVertices[t]++
		}
		for _, t := range g.In(dict.VertexID(v)).Types {
			c.InVertices[t]++
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

// Neighbors implements the paper's N probe on the graph's runs: given
// matched data vertex v, a direction, and a multi-edge T′ (sorted,
// duplicate-free), return
//
//	dir=Incoming: {v′ | (v′,v) ∈ E ∧ T′ ⊆ LE(v′,v)}
//	dir=Outgoing: {v′ | (v,v′) ∈ E ∧ T′ ⊆ LE(v,v′)}
//
// sorted ascending. A single-type probe returns the stored run itself:
// the result may alias the graph and must not be modified.
func (r GraphReader) Neighbors(v dict.VertexID, dir Direction, types []dict.EdgeType) []dict.VertexID {
	if int(v) >= r.G.NumVertices() {
		return nil
	}
	if dir == Incoming {
		return r.G.In(v).Lookup(types)
	}
	return r.G.Out(v).Lookup(types)
}

// AttrCandidates returns CᴬU: the vertices carrying every attribute in
// attrs, the graph's lists of index A intersected rarest first. A nil
// attrs yields nil.
func (r GraphReader) AttrCandidates(attrs []dict.AttrID) []dict.VertexID {
	lists := make([][]dict.VertexID, len(attrs))
	for i, a := range attrs {
		lists[i] = r.G.AttrVertices(a)
	}
	return otil.IntersectAll(lists)
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

// Index holds the ensemble's S plus the cardinality statistics gathered
// alongside it; A and N are the graph's own attribute side and adjacency.
type Index struct {
	S *SignatureIndex
	// Card holds per-edge-type cardinalities for the cost-based planner.
	Card *Cardinalities
}

// Build constructs S and the planner statistics for g.
func Build(g *multigraph.Graph) *Index {
	return &Index{
		S:    BuildSignatureIndex(g),
		Card: BuildCardinalities(g),
	}
}
