// Package rtree implements an in-memory R-tree over fixed-dimension integer
// points, the storage structure the AMbER paper prescribes for the vertex
// signature index S (Section 4.2): every data-vertex synopsis spans an
// axes-parallel rectangle from the origin, and candidate retrieval is a
// containment (dominance) query.
//
// Two construction paths are provided: incremental insertion with Guttman's
// quadratic split, and a sort-tile-recursive (STR) bulk load used by the
// offline index build. Both produce trees answering the same queries; the
// benchmark harness uses the difference as an ablation.
package rtree

import "sort"

// Dims is the dimensionality of indexed points. The synopsis of the AMbER
// paper has eight fields (f1..f4 for incoming and outgoing edges).
const Dims = 8

// Point is one indexed point.
type Point [Dims]int32

// maxEntries and minEntries are the node capacity bounds (Guttman's M, m).
const (
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

type entry struct {
	min, max Point // bounding box; for leaf entries min == max == the point
	child    *node // nil at leaves
	id       uint32
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is an R-tree. The zero value is an empty tree ready for Insert.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len reports the number of stored points.
func (t *Tree) Len() int { return t.size }

// Insert adds point p with payload id.
func (t *Tree) Insert(p Point, id uint32) {
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	e := entry{min: p, max: p, id: id}
	if split := insert(t.root, e); split != nil {
		left := t.root
		le := boundingEntry(left)
		le.child = left
		se := boundingEntry(split)
		se.child = split
		t.root = &node{leaf: false, entries: []entry{le, se}}
	}
	t.size++
}

// insert places e below n, returning a new sibling when n overflowed and
// split.
func insert(n *node, e entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
	} else {
		idx := chooseSubtree(n, e)
		if split := insert(n.entries[idx].child, e); split != nil {
			se := boundingEntry(split)
			se.child = split
			n.entries = append(n.entries, se)
		}
		be := boundingEntry(n.entries[idx].child)
		n.entries[idx].min, n.entries[idx].max = be.min, be.max
	}
	if len(n.entries) > maxEntries {
		return splitNode(n)
	}
	return nil
}

// chooseSubtree picks the child whose box needs the least enlargement
// (ties: smallest area).
func chooseSubtree(n *node, e entry) int {
	best, bestIdx := -1.0, 0
	for i := range n.entries {
		enl := enlargement(n.entries[i].min, n.entries[i].max, e.min, e.max)
		if best < 0 || enl < best ||
			(enl == best && area(n.entries[i].min, n.entries[i].max) < area(n.entries[bestIdx].min, n.entries[bestIdx].max)) {
			best, bestIdx = enl, i
		}
	}
	return bestIdx
}

// boundingEntry computes the bounding box of all entries in n.
func boundingEntry(n *node) entry {
	e := entry{}
	e.min, e.max = n.entries[0].min, n.entries[0].max
	for _, c := range n.entries[1:] {
		for d := 0; d < Dims; d++ {
			if c.min[d] < e.min[d] {
				e.min[d] = c.min[d]
			}
			if c.max[d] > e.max[d] {
				e.max[d] = c.max[d]
			}
		}
	}
	return e
}

// splitNode performs Guttman's quadratic split in place, returning the new
// sibling node.
func splitNode(n *node) *node {
	ents := n.entries
	// Pick seeds: the pair wasting the most area if grouped together.
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			d := deadArea(ents[i], ents[j])
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := &node{leaf: n.leaf, entries: []entry{ents[s1]}}
	g2 := &node{leaf: n.leaf, entries: []entry{ents[s2]}}
	b1, b2 := ents[s1], ents[s2]
	rest := make([]entry, 0, len(ents)-2)
	for i, e := range ents {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Force assignment when one group must take all remaining entries
		// to reach the minimum fill.
		if len(g1.entries)+len(rest) == minEntries {
			g1.entries = append(g1.entries, rest...)
			break
		}
		if len(g2.entries)+len(rest) == minEntries {
			g2.entries = append(g2.entries, rest...)
			break
		}
		// Otherwise assign the entry with the strongest group preference.
		bestIdx, bestDiff, toG1 := 0, -1.0, true
		for i, e := range rest {
			d1 := enlargement(b1.min, b1.max, e.min, e.max)
			d2 := enlargement(b2.min, b2.max, e.min, e.max)
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx, toG1 = diff, i, d1 < d2
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if toG1 {
			g1.entries = append(g1.entries, e)
			b1 = merge(b1, e)
		} else {
			g2.entries = append(g2.entries, e)
			b2 = merge(b2, e)
		}
	}
	n.entries = g1.entries
	return g2
}

func merge(a, b entry) entry {
	for d := 0; d < Dims; d++ {
		if b.min[d] < a.min[d] {
			a.min[d] = b.min[d]
		}
		if b.max[d] > a.max[d] {
			a.max[d] = b.max[d]
		}
	}
	return a
}

func area(min, max Point) float64 {
	a := 1.0
	for d := 0; d < Dims; d++ {
		a *= float64(max[d]-min[d]) + 1
	}
	return a
}

func enlargement(min, max, emin, emax Point) float64 {
	grown := merge(entry{min: min, max: max}, entry{min: emin, max: emax})
	return area(grown.min, grown.max) - area(min, max)
}

func deadArea(a, b entry) float64 {
	m := merge(a, b)
	return area(m.min, m.max) - area(a.min, a.max) - area(b.min, b.max)
}

// SearchDominating visits every stored point p with p[d] ≥ q[d] for all
// dimensions, i.e. all synopses whose rectangle contains the query
// rectangle. Iteration stops early if fn returns false.
func (t *Tree) SearchDominating(q Point, fn func(id uint32) bool) {
	if t.root != nil {
		searchDom(t.root, q, fn)
	}
}

func searchDom(n *node, q Point, fn func(id uint32) bool) bool {
	for i := range n.entries {
		e := &n.entries[i]
		// Prune subtrees whose box cannot reach q in some dimension.
		ok := true
		for d := 0; d < Dims; d++ {
			if e.max[d] < q[d] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if n.leaf {
			if !fn(e.id) {
				return false
			}
			continue
		}
		if !searchDom(e.child, q, fn) {
			return false
		}
	}
	return true
}

// CollectDominating returns all payloads dominating q, in unspecified order.
func (t *Tree) CollectDominating(q Point) []uint32 {
	var out []uint32
	t.SearchDominating(q, func(id uint32) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Depth reports the height of the tree (0 for empty), for diagnostics and
// tests.
func (t *Tree) Depth() int {
	d, n := 0, t.root
	for n != nil {
		d++
		if n.leaf || len(n.entries) == 0 {
			break
		}
		n = n.entries[0].child
	}
	return d
}

// BulkLoad builds a tree from parallel slices of points and ids using a
// sort-tile-recursive packing. It panics if the slice lengths differ.
func BulkLoad(points []Point, ids []uint32) *Tree {
	if len(points) != len(ids) {
		panic("rtree: BulkLoad slice length mismatch")
	}
	t := &Tree{size: len(points)}
	if len(points) == 0 {
		return t
	}
	leaves := make([]entry, len(points))
	for i, p := range points {
		leaves[i] = entry{min: p, max: p, id: ids[i]}
	}
	t.root = packLevel(leaves, true)
	return t
}

// packLevel recursively packs entries into nodes.
func packLevel(ents []entry, leaf bool) *node {
	if len(ents) <= maxEntries {
		return &node{leaf: leaf, entries: ents}
	}
	sort.Sort(byCentre(ents))
	nNodes := (len(ents) + maxEntries - 1) / maxEntries
	nodes := make([]entry, 0, nNodes)
	for start := 0; start < len(ents); start += maxEntries {
		end := start + maxEntries
		if end > len(ents) {
			end = len(ents)
		}
		// Nodes of one level share the sorted array (capacity-capped, so an
		// Insert that grows a node copies it out): a walk reads a level's
		// entries in memory order.
		child := &node{leaf: leaf, entries: ents[start:end:end]}
		be := boundingEntry(child)
		be.child = child
		nodes = append(nodes, be)
	}
	return packLevel(nodes, false)
}

// byCentre orders entries lexicographically by box centre, then by id,
// giving STR-like locality across dimensions. Less compares the entries in
// place: a comparator that takes them by value (sort.Slice's closure,
// slices.SortFunc's cmp) copies two 80-byte entries per comparison.
type byCentre []entry

func (s byCentre) Len() int      { return len(s) }
func (s byCentre) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

func (s byCentre) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	for d := 0; d < Dims; d++ {
		ca := int64(a.min[d]) + int64(a.max[d])
		cb := int64(b.min[d]) + int64(b.max[d])
		if ca != cb {
			return ca < cb
		}
	}
	return a.id < b.id
}
