package multigraph

import (
	"math"
	"slices"

	"repro/internal/dict"
	"repro/internal/otil"
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
// the largest has maxCard types, and types, ascending and duplicate-free,
// are the types of them all. Data and query synopses both end here.
func sideSynopsis(dst []int32, maxCard int, types []dict.EdgeType) {
	if maxCard == 0 {
		return
	}
	dst[0], dst[1], dst[2], dst[3] = int32(maxCard), int32(len(types)), -int32(types[0]), int32(types[len(types)-1])
}

// SynopsisFromMultiEdges computes a synopsis from explicit incoming and
// outgoing multi-edge sets: a query vertex's signature, which comes from
// the query multigraph. On a data vertex's Signature it agrees with
// VertexSynopsis.
func SynopsisFromMultiEdges(in, out [][]dict.EdgeType) Synopsis {
	var s Synopsis
	for i, mes := range [2][][]dict.EdgeType{in, out} {
		maxCard := 0
		for _, me := range mes {
			maxCard = max(maxCard, len(me))
		}
		types := slices.Concat(mes...)
		slices.Sort(types)
		sideSynopsis(s[4*i:4*i+4], maxCard, slices.Compact(types))
	}
	return s
}

// VertexSynopsis computes the synopsis of data vertex v. A side's types are
// its runs; its largest multi-edge is found by merging the runs, which for
// fewer than 16 runs needs no heap allocation.
func (g *Graph) VertexSynopsis(v dict.VertexID) Synopsis {
	var s Synopsis
	for i, p := range [2]otil.Postings{g.In(v), g.Out(v)} {
		var cbuf, hbuf [16]uint32
		var tbuf [16]dict.EdgeType
		m, maxCard := mergeRuns(p, cbuf[:0], hbuf[:0]), 0
		for ts, ok := tbuf[:0], true; ok; {
			_, ts, ok = m.next(ts[:0])
			maxCard = max(maxCard, len(ts))
		}
		sideSynopsis(s[4*i:4*i+4], maxCard, p.Types)
	}
	return s
}

// runMerge regroups one vertex side by neighbour: a k-way merge of its runs
// on a binary heap ordered by (head, type), so a side of L labels in k
// runs regroups in O(L log k).
type runMerge struct {
	p    otil.Postings
	cur  []uint32 // run i's next position in p.IDs
	heap []uint32 // the unspent runs
}

// mergeRuns starts a merge of p's runs in the scratch cur and heap.
func mergeRuns(p otil.Postings, cur, heap []uint32) runMerge {
	cur = append(cur, p.Off[:len(p.Types)]...)
	for i := range p.Types {
		heap = append(heap, uint32(i))
	}
	m := runMerge{p: p, cur: cur, heap: heap}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// less orders runs by their heads, then by type.
func (m *runMerge) less(a, b uint32) bool {
	x, y := m.p.IDs[m.cur[a]], m.p.IDs[m.cur[b]]
	return x < y || (x == y && a < b)
}

func (m *runMerge) down(i int) {
	h := m.heap
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.less(h[c+1], h[c]) {
			c++
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// next returns the least neighbour w not yet visited, with the types of
// the runs that hold it appended to ts in ascending order, and advances
// those runs; ok is false once all runs are spent.
func (m *runMerge) next(ts []dict.EdgeType) (w dict.VertexID, _ []dict.EdgeType, ok bool) {
	if len(m.heap) == 0 {
		return 0, ts, false
	}
	w = m.p.IDs[m.cur[m.heap[0]]]
	for len(m.heap) > 0 {
		r := m.heap[0]
		if m.p.IDs[m.cur[r]] != w {
			break
		}
		ts = append(ts, m.p.Types[r])
		if m.cur[r]++; m.cur[r] == m.p.Off[r+1] {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	return w, ts, true
}

// MultiEdges is one vertex's side regrouped by neighbour: the form of the
// snapshot's adjacency section and of the paper's vertex signature. Reuse
// one across vertices to reuse its arrays.
type MultiEdges struct {
	nbrs      []dict.VertexID
	off       []uint32
	types     []dict.EdgeType
	cur, heap []uint32 // merge scratch
}

// Regroup refills m with p's multi-edges: one per neighbour, by ascending
// neighbour, each with its types ascending.
func (m *MultiEdges) Regroup(p otil.Postings) {
	m.nbrs, m.off, m.types = m.nbrs[:0], append(m.off[:0], 0), m.types[:0]
	rm := mergeRuns(p, m.cur[:0], m.heap[:0])
	for {
		w, ts, ok := rm.next(m.types)
		if !ok {
			break
		}
		m.nbrs, m.types = append(m.nbrs, w), ts
		m.off = append(m.off, uint32(len(ts)))
	}
	m.cur, m.heap = rm.cur, rm.heap
}

// Len reports the number of distinct neighbours.
func (m *MultiEdges) Len() int { return len(m.nbrs) }

// V returns the i-th neighbour.
func (m *MultiEdges) V(i int) dict.VertexID { return m.nbrs[i] }

// Types returns the multi-edge to the i-th neighbour, ascending. It is
// valid until the next Regroup.
func (m *MultiEdges) Types(i int) []dict.EdgeType { return m.types[m.off[i]:m.off[i+1]:m.off[i+1]] }

// Signature returns the vertex signature σv of Definition 3 as two slices
// of multi-edges, incoming (+) and outgoing (−), each by ascending
// neighbour.
func (g *Graph) Signature(v dict.VertexID) (in, out [][]dict.EdgeType) {
	list := func(p otil.Postings) [][]dict.EdgeType {
		var m MultiEdges
		m.Regroup(p)
		mes := make([][]dict.EdgeType, m.Len())
		for i := range mes {
			mes[i] = m.Types(i)
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
	in, out := g.Signature(v)
	return matchMultiEdges(qin, in) && matchMultiEdges(qout, out)
}

// matchMultiEdges greedily checks that each query multi-edge embeds into a
// distinct data multi-edge via bipartite matching (small sizes: backtrack).
func matchMultiEdges(query, data [][]dict.EdgeType) bool {
	if len(query) == 0 {
		return true
	}
	if len(query) > len(data) {
		return false
	}
	used := make([]bool, len(data))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(query) {
			return true
		}
		for j := range used {
			if used[j] || !ContainsTypes(data[j], query[i]) {
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
