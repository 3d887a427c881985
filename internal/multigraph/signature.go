package multigraph

import (
	"math"
	"slices"

	"repro/internal/dict"
)

// SynopsisFields is the dimensionality of a vertex synopsis: the four
// features f1..f4 of Section 4.2, replicated for incoming (+) and outgoing
// (−) edges.
const SynopsisFields = 8

// Synopsis is the surrogate representation of a vertex signature
// (Section 4.2, Table 3). Field order:
//
//	[0] f1+  maximum cardinality of an incoming multi-edge
//	[1] f2+  number of unique incoming edge types ("dimensions")
//	[2] f3+  NEGATED minimum incoming edge-type index
//	[3] f4+  maximum incoming edge-type index
//	[4] f1−  … same four for outgoing edges …
//	[5] f2−
//	[6] f3−  NEGATED minimum outgoing edge-type index
//	[7] f4−
//
// f3 is stored negated so that candidate filtering is a single dominance
// test: u can match v only if Synopsis(u)[i] ≤ Synopsis(v)[i] for every i
// (Lemma 1). A direction with no edges contributes all-zero fields, which
// any vertex dominates.
type Synopsis [SynopsisFields]int32

// AsQuery converts a synopsis computed from a query vertex's signature into
// the form used for index probes. When a direction has no edges at all, its
// negated-minimum field (f3) is lowered to the global minimum so that the
// uniform dominance test places no constraint on that direction: a data
// vertex with incoming edges of any minimum index must still match a query
// vertex that has no incoming edges. (Data synopses keep plain zeros for
// empty directions — Lemma 1's proof relies on f1 rejecting those.)
func (s Synopsis) AsQuery() Synopsis {
	if s[0] == 0 { // no incoming multi-edges (f1+ ≥ 1 otherwise)
		s[2] = math.MinInt32
	}
	if s[4] == 0 { // no outgoing multi-edges
		s[6] = math.MinInt32
	}
	return s
}

// Dominates reports whether s dominates q componentwise (q[i] ≤ s[i] ∀i),
// i.e. whether the rectangle spanned by q is contained in the one spanned
// by s. A data vertex with synopsis s remains a candidate for a query
// vertex with synopsis q exactly when this holds.
func (s Synopsis) Dominates(q Synopsis) bool {
	for i := range s {
		if q[i] > s[i] {
			return false
		}
	}
	return true
}

// sideSynopsis fills half of a synopsis from one direction's multi-edges:
// the largest has maxCard types, and types holds the types of them all.
func sideSynopsis(dst []int32, maxCard int, types []dict.EdgeType) {
	if maxCard == 0 {
		return
	}
	uniq := make(map[dict.EdgeType]struct{})
	minIdx, maxIdx := types[0], types[0]
	for _, t := range types {
		uniq[t] = struct{}{}
		minIdx, maxIdx = min(minIdx, t), max(maxIdx, t)
	}
	dst[0], dst[1], dst[2], dst[3] = int32(maxCard), int32(len(uniq)), -int32(minIdx), int32(maxIdx)
}

// SynopsisFromMultiEdges computes a synopsis from explicit incoming and
// outgoing multi-edge sets. It is shared between data vertices and query
// vertices (whose signatures come from the query multigraph).
func SynopsisFromMultiEdges(in, out [][]dict.EdgeType) Synopsis {
	var s Synopsis
	for i, mes := range [2][][]dict.EdgeType{in, out} {
		maxCard := 0
		for _, me := range mes {
			maxCard = max(maxCard, len(me))
		}
		sideSynopsis(s[4*i:4*i+4], maxCard, slices.Concat(mes...))
	}
	return s
}

// VertexSynopsis computes the synopsis of data vertex v.
func (g *Graph) VertexSynopsis(v dict.VertexID) Synopsis {
	var s Synopsis
	for i, a := range [2]Adjacency{g.In(v), g.Out(v)} {
		maxCard := 0
		for j := range a.nbr {
			maxCard = max(maxCard, int(a.tOff[j+1]-a.tOff[j]))
		}
		sideSynopsis(s[4*i:4*i+4], maxCard, a.AllTypes())
	}
	return s
}

// Signature returns the vertex signature σv of Definition 3 as two slices
// of multi-edges: incoming (+) and outgoing (−). The inner slices alias the
// graph's storage and must not be modified.
func (g *Graph) Signature(v dict.VertexID) (in, out [][]dict.EdgeType) {
	list := func(adj Adjacency) [][]dict.EdgeType {
		mes := make([][]dict.EdgeType, adj.Len())
		for i := range mes {
			mes[i] = adj.Types(i)
		}
		return mes
	}
	return list(g.In(v)), list(g.Out(v))
}

// SignatureSubsumes reports whether the signature (qin, qout) of a query
// vertex is subsumed by data vertex v's signature in the exact sense the
// synopsis approximates: for every query multi-edge there must exist a
// distinct data multi-edge of the same direction containing it.
//
// This is the reference ("ground truth") predicate used by tests to verify
// Lemma 1: the synopsis dominance test never prunes a vertex for which
// SignatureSubsumes holds.
func (g *Graph) SignatureSubsumes(v dict.VertexID, qin, qout [][]dict.EdgeType) bool {
	return matchMultiEdges(qin, g.In(v)) && matchMultiEdges(qout, g.Out(v))
}

// matchMultiEdges greedily checks that each query multi-edge embeds into a
// distinct data multi-edge via bipartite matching (small sizes: backtrack).
func matchMultiEdges(query [][]dict.EdgeType, data Adjacency) bool {
	if len(query) == 0 {
		return true
	}
	if len(query) > data.Len() {
		return false
	}
	used := make([]bool, data.Len())
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(query) {
			return true
		}
		for j := range used {
			if used[j] || !ContainsTypes(data.Types(j), query[i]) {
				continue
			}
			used[j] = true
			if rec(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return rec(0)
}
