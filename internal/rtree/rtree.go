// Package rtree implements a static in-memory R-tree over fixed-dimension
// integer points, the storage structure the AMbER paper prescribes for the
// vertex signature index S (Section 4.2): every data-vertex synopsis spans
// an axes-parallel rectangle from the origin, and candidate retrieval is a
// containment (dominance) query.
//
// S is built once per generation, in the offline stage, so the tree has one
// construction path: a sort-tile-recursive (STR) bulk load (Leutenegger et
// al., ICDE 1997). Each level is one flat array of entries holding only
// what the dominance search reads: a box's upper corner and a reference to
// the payload (at a leaf) or to the node's first child in the level below.
package rtree

import (
	"sort"
	"unsafe"
)

// Dims is the dimensionality of indexed points. The synopsis of the AMbER
// paper has eight fields (f1..f4 for incoming and outgoing edges).
const Dims = 8

// Point is one indexed point.
type Point [Dims]int32

// fanout is the node capacity: a node is up to 16 consecutive entries.
const fanout = 16

// entry is one served slot. At a leaf, max is the point and ref its
// payload id; above, max is a child node's upper corner and ref the index
// of its first entry in the level below. The dominance search never reads
// a lower corner, so none is stored.
type entry struct {
	max Point
	ref uint32
}

// box is a bounding box while a level is being packed: the lower corner
// orders the level by box centre, then is dropped.
type box struct {
	min, max Point
	ref      uint32
}

// Tree is a bulk-loaded R-tree. levels[0] holds the leaves in packing
// order, and the last level the root's entries.
type Tree struct {
	levels [][]entry
}

// Len reports the number of stored points.
func (t *Tree) Len() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// Bytes reports the size of the level arrays.
func (t *Tree) Bytes() int64 {
	n := 0
	for _, l := range t.levels {
		n += len(l)
	}
	return int64(n) * int64(unsafe.Sizeof(entry{}))
}

// BulkLoad builds a tree from parallel slices of points and ids using a
// sort-tile-recursive packing. It panics if the slice lengths differ.
func BulkLoad(points []Point, ids []uint32) *Tree {
	if len(points) != len(ids) {
		panic("rtree: BulkLoad slice length mismatch")
	}
	t := &Tree{}
	if len(points) == 0 {
		return t
	}
	level := make([]entry, len(points))
	for i, p := range points {
		level[i] = entry{max: p, ref: ids[i]}
	}
	sort.Sort(byPoint(level)) // a leaf's box centre is its point
	t.levels = append(t.levels, level)
	var boxes []box // the build-time boxes of level; nil at the leaves
	for len(level) > fanout {
		up := make([]box, 0, (len(level)+fanout-1)/fanout)
		for start := 0; start < len(level); start += fanout {
			b := box{min: level[start].max, max: level[start].max, ref: uint32(start)}
			for j := start; j < min(start+fanout, len(level)); j++ {
				lo := level[j].max
				if boxes != nil {
					lo = boxes[j].min
				}
				for d := 0; d < Dims; d++ {
					b.min[d] = min(b.min[d], lo[d])
					b.max[d] = max(b.max[d], level[j].max[d])
				}
			}
			up = append(up, b)
		}
		sort.Sort(byCentre(up))
		level = make([]entry, len(up))
		for i, b := range up {
			level[i] = entry{max: b.max, ref: b.ref}
		}
		t.levels = append(t.levels, level)
		boxes = up
	}
	return t
}

// SearchDominating visits every stored point p with p[d] ≥ q[d] for all
// dimensions, i.e. all synopses whose rectangle contains the query
// rectangle. Iteration stops early if fn returns false.
func (t *Tree) SearchDominating(q Point, fn func(id uint32) bool) {
	if top := len(t.levels) - 1; top >= 0 {
		t.search(top, t.levels[top], &q, fn)
	}
}

// search walks the entries ents of level l, descending into every child
// node whose box reaches q.
func (t *Tree) search(l int, ents []entry, q *Point, fn func(id uint32) bool) bool {
	if l == 0 {
		for i := range ents {
			if reaches(&ents[i].max, q) && !fn(ents[i].ref) {
				return false
			}
		}
		return true
	}
	below := t.levels[l-1]
	for i := range ents {
		if !reaches(&ents[i].max, q) {
			continue
		}
		first := int(ents[i].ref)
		if !t.search(l-1, below[first:min(first+fanout, len(below))], q, fn) {
			return false
		}
	}
	return true
}

// reaches reports whether p[d] ≥ q[d] in every dimension.
func reaches(p, q *Point) bool {
	for d := 0; d < Dims; d++ {
		if p[d] < q[d] {
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

// byPoint orders leaf entries lexicographically by point, then by id. Less
// compares in place, where slices.SortFunc's cmp would copy two entries.
type byPoint []entry

func (s byPoint) Len() int      { return len(s) }
func (s byPoint) Swap(i, j int) { s[i], s[j] = s[j], s[i] }

func (s byPoint) Less(i, j int) bool {
	a, b := &s[i], &s[j]
	for d := 0; d < Dims; d++ {
		if a.max[d] != b.max[d] {
			return a.max[d] < b.max[d]
		}
	}
	return a.ref < b.ref
}

// byCentre orders boxes lexicographically by centre, then by first child,
// giving STR-like locality across dimensions.
type byCentre []box

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
	return a.ref < b.ref
}
