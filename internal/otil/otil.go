// Package otil implements the Ordered Trie with Inverted Lists of
// Terrovitis et al. (CIKM 2006), the structure the AMbER paper uses for the
// vertex neighbourhood index N (Section 4.3, Figure 3).
//
// One OTIL indexes the multi-edges incident on a single data vertex in one
// direction. Each multi-edge — the ordered set of edge types shared with
// one neighbour — is a root-to-node trie path, and the neighbour is
// recorded both at the terminal trie node and in a per-edge-type inverted
// list. A lookup for a query multi-edge T′ returns every neighbour whose
// multi-edge is a superset of T′.
//
// The served index only ever reads the inverted lists, so that half stands
// alone as Postings: a type-sorted array of ascending neighbour lists with
// the one lookup implementation. The data graph stores its adjacency in
// this form, one flat set of arrays per direction, and multigraph.Graph's
// In and Out slice a vertex's share out of them. Trie adds the trie half
// on top: it is the reference implementation the tests and the ablation
// benchmark compare against (LookupTrie, skip-descent walk).
package otil

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/dict"
)

// Postings is the inverted-list half of an OTIL: for each edge type in
// Types (ascending, unique), the ascending duplicate-free list of
// neighbours whose multi-edge contains it. List i is
// IDs[Off[i]:Off[i+1]], so len(Off) == len(Types)+1 and offsets index IDs
// directly — several Postings may share one IDs array. The zero value is
// an empty index.
type Postings struct {
	Types []dict.EdgeType
	Off   []uint32
	IDs   []dict.VertexID
}

// List returns the stored neighbour list of a single edge type (nil when
// the type is absent). The returned slice aliases the index and must not
// be modified.
func (p Postings) List(et dict.EdgeType) []dict.VertexID {
	i, ok := slices.BinarySearch(p.Types, et)
	if !ok {
		return nil
	}
	return p.IDs[p.Off[i]:p.Off[i+1]:p.Off[i+1]]
}

// Lookup returns, sorted ascending, every neighbour whose multi-edge is a
// superset of types (sorted ascending, duplicates allowed but redundant).
// A single-type query returns the stored list itself — no copy, the
// result must not be modified; a multi-type query intersects from the
// rarest list outward into one fresh slice. An empty query returns nil —
// the engine never asks for unconstrained neighbours through the index.
func (p Postings) Lookup(types []dict.EdgeType) []dict.VertexID {
	if len(types) == 1 {
		return p.List(types[0])
	}
	var buf [8][]dict.VertexID // query multi-edges are short: keeps lists off the heap
	lists := buf[:0]
	for _, et := range types {
		lists = append(lists, p.List(et))
	}
	return IntersectAll(lists)
}

// IntersectAll returns, in one fresh slice, the ids present in every list
// (each ascending), intersecting from the shortest list outward. It is nil
// when lists is empty or any list is; a single list is copied.
func IntersectAll[T ~uint32](lists [][]T) []T {
	if len(lists) == 0 {
		return nil
	}
	rarest := 0
	for i, lst := range lists {
		if len(lst) == 0 {
			return nil
		}
		if len(lst) < len(lists[rarest]) {
			rarest = i
		}
	}
	src := lists[rarest]
	out := make([]T, 0, len(src))
	if len(lists) == 1 {
		return append(out, src...)
	}
	for i, lst := range lists {
		if i == rarest {
			continue
		}
		// Writing into out while reading it is safe: the write index never
		// passes the read index.
		out = intersectInto(out[:0], src, lst)
		if len(out) == 0 {
			return nil
		}
		src = out
	}
	return out
}

// intersectInto appends the intersection of two ascending lists to dst.
func intersectInto[T ~uint32](dst, a, b []T) []T {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// tnode is one trie node; children are kept sorted by edge type.
type tnode struct {
	children []childRef
	// neighbours whose full multi-edge ends at this node
	terminal []dict.VertexID
}

type childRef struct {
	t dict.EdgeType
	n *tnode
}

func (n *tnode) ensureChild(t dict.EdgeType) *tnode {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].t >= t })
	if i < len(n.children) && n.children[i].t == t {
		return n.children[i].n
	}
	c := &tnode{}
	n.children = append(n.children, childRef{})
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = childRef{t: t, n: c}
	return c
}

// Trie indexes the multi-edges of one vertex in one direction, insert by
// insert. The zero value is ready to use; lookups finalize lazily, so a
// Trie must not be probed concurrently with its first lookup.
type Trie struct {
	root tnode
	post Postings // the inverted lists, derived from the trie by Finalize
	fin  bool
}

// Insert records that neighbour v is connected through the multi-edge
// types, which must be sorted ascending and duplicate-free (the universal
// order the paper requires).
func (t *Trie) Insert(types []dict.EdgeType, v dict.VertexID) {
	if len(types) == 0 {
		return
	}
	n := &t.root
	for _, et := range types {
		n = n.ensureChild(et)
	}
	n.terminal = append(n.terminal, v)
	t.fin = false
}

// posting is one (edge type, neighbour) pair of the inverted lists.
type posting struct {
	t dict.EdgeType
	v dict.VertexID
}

// Finalize derives the inverted lists from the trie paths; it must be
// called before lookups and is idempotent.
func (t *Trie) Finalize() {
	if t.fin {
		return
	}
	var all []posting
	collectPostings(&t.root, nil, &all)
	slices.SortFunc(all, func(a, b posting) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.v, b.v))
	})
	all = slices.Compact(all)
	t.post = Postings{}
	for i, p := range all {
		if i == 0 || p.t != all[i-1].t {
			t.post.Types = append(t.post.Types, p.t)
			t.post.Off = append(t.post.Off, uint32(i))
		}
		t.post.IDs = append(t.post.IDs, p.v)
	}
	t.post.Off = append(t.post.Off, uint32(len(all)))
	t.fin = true
}

// collectPostings emits one posting per (type on the path, terminal) of
// every node below n; path holds the types from the root to n.
func collectPostings(n *tnode, path []dict.EdgeType, out *[]posting) {
	for _, v := range n.terminal {
		for _, et := range path {
			*out = append(*out, posting{et, v})
		}
	}
	for _, c := range n.children {
		collectPostings(c.n, append(path, c.t), out)
	}
}

// Neighbors returns the sorted inverted list for a single edge type: all
// neighbours whose multi-edge contains et. The returned slice must not be
// modified.
func (t *Trie) Neighbors(et dict.EdgeType) []dict.VertexID {
	t.Finalize()
	return t.post.List(et)
}

// Lookup answers the superset query from the inverted lists (see
// Postings.Lookup).
func (t *Trie) Lookup(types []dict.EdgeType) []dict.VertexID {
	t.Finalize()
	return t.post.Lookup(types)
}

// LookupTrie answers the same superset query by walking the trie with
// skip-descent. It is the reference implementation used by tests and the
// ablation benchmarks.
func (t *Trie) LookupTrie(types []dict.EdgeType) []dict.VertexID {
	if len(types) == 0 {
		return nil
	}
	var out []dict.VertexID
	walkSuperset(&t.root, types, &out)
	slices.Sort(out)
	return slices.Compact(out)
}

// walkSuperset visits all terminal nodes whose path contains every type in
// want (sorted). Because paths are ordered ascending, a child with type
// greater than want[0] can never contain want[0] deeper down.
func walkSuperset(n *tnode, want []dict.EdgeType, out *[]dict.VertexID) {
	if len(want) == 0 {
		collectTerminals(n, out)
		return
	}
	target := want[0]
	for _, c := range n.children {
		switch {
		case c.t < target:
			walkSuperset(c.n, want, out) // skip an extra symbol
		case c.t == target:
			walkSuperset(c.n, want[1:], out) // consume the query symbol
		default:
			return // children are ordered; target can no longer appear
		}
	}
}

// collectTerminals gathers the terminals of the whole subtree.
func collectTerminals(n *tnode, out *[]dict.VertexID) {
	*out = append(*out, n.terminal...)
	for _, c := range n.children {
		collectTerminals(c.n, out)
	}
}

// Len reports the number of distinct edge types indexed.
func (t *Trie) Len() int {
	t.Finalize()
	return len(t.post.Types)
}

// IntersectSorted returns the intersection of two ascending id lists.
func IntersectSorted[T ~uint32](a, b []T) []T {
	return intersectInto(nil, a, b)
}

// ContainsSorted reports whether v occurs in the ascending id list, by
// binary search.
func ContainsSorted[T ~uint32](lst []T, v T) bool {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(lst) && lst[lo] == v
}
