// Package delta implements the live-update overlay of the AMbER
// reproduction: an immutable view of "frozen base graph + in-memory
// changes" that presents the same probe surface (index.Reader) and
// dictionary surface (dict.Resolver) as a frozen generation, so the
// matching engine, the planner and query translation run unchanged over
// mutating data.
//
// The design keeps the paper's expensive index ensemble untouched per
// generation: a View records only the difference — added triples and
// tombstones over the base — plus its own small side indexes (per-pair
// edge-type deltas, per-vertex touch lists and an attribute add/remove
// inverted index). Probes consult the base first — its ensemble, and for
// N the base graph's runs — and correct the answer through the overlay,
// testing the wanted types of a touched pair one by one, so overlay
// matching stays sublinear in the base and linear only in the delta.
//
// There is one set of dictionaries per generation, Mv, Me and Ma of the
// paper's Table 2: the overlay's writer interns terms the base has never
// seen straight into the base graph's Dicts, so their ids continue the
// base's dense ranges in intern order. Each View carries a dict.Snapshot
// taken when it was published, which answers every dictionary question
// with one access and fixes the View's id bounds: a term interned by a
// later batch is absent from it, and NumVertices, NumEdgeTypes and
// NumAttrs are its lengths.
//
// # Writer-owned overlay, frozen views
//
// All Views published over one base generation share a single
// writer-owned overlay (the shared struct). A View is a lightweight
// handle: a version number, its dictionary snapshot and a fixed-length
// prefix of the shared touched list. Apply mutates the shared overlay in place at
// the next version and returns a new View bound to it — O(batch) work,
// independent of how much overlay has accumulated — instead of deep
// copying the whole overlay per batch.
//
// Snapshot isolation is preserved two ways. Structures whose answers
// must be exact (pair deltas, attribute sets and their inverted lists)
// are keyed maps of immutable version chains: the writer prepends a
// copy-on-write bucket per mutation, and a reader walks to the newest
// bucket at or below its View's version. Structures whose entries are
// monotone supersets verified by exact probes downstream (touch lists,
// the touched-vertex list) are shared outright and filtered by the
// View's id bounds.
//
// Apply must be called on the newest View of its overlay — the shape
// internal/core.Store's serialized writer guarantees. Readers need no
// synchronization and may run concurrently with the writer; version
// chains keep growing until compaction starts a fresh generation, which
// is why Store also triggers compaction on Versions(), not just Size().
package delta

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rdf"
)

// edgeKey identifies a directed vertex pair carrying an edge-type delta.
//
//amber:hot
type edgeKey struct {
	from, to dict.VertexID
}

// pairDelta is the multi-edge change on one directed pair: types added
// beyond the base label set and base types tombstoned. Both are sorted
// and disjoint; a type deleted and re-added cancels out.
//
//amber:hot
type pairDelta struct {
	add []dict.EdgeType
	del []dict.EdgeType
}

// verNode is one immutable version of a bucket, newest first. A reader
// walks the chain to the first node at or below its View's version; the
// single writer prepends (or replaces an unpublished head in place —
// never mutating a node a published View can see).
type verNode[V any] struct {
	ver  uint64
	val  V
	prev *verNode[V]
}

// verMap is a concurrent map of version chains: the exact-visibility
// copy-on-write store behind pair deltas and attribute postings.
type verMap[K comparable, V any] struct {
	m swmap[K, verNode[V]]
}

// get returns the bucket visible at version ver.
func (vm *verMap[K, V]) get(k K, ver uint64) (V, bool) {
	var zero V
	for n := vm.m.load(k); n != nil; n = n.prev {
		if n.ver <= ver {
			return n.val, true
		}
	}
	return zero, false
}

// verRef is a writer-side handle on one bucket: the map entry (nil when
// the key is absent) and the chain head it carried. The serialized
// writer's version upper-bounds every chain, so the head is always the
// bucket it sees; threading the ref into putRef saves the second map
// probe a get-then-put pair would pay. A ref is invalidated by any
// insert into the same verMap (swmap handle caveat).
type verRef[K comparable, V any] struct {
	e    *swentry[K, verNode[V]]
	head *verNode[V]
}

// ref returns the writer's handle on k's bucket.
func (vm *verMap[K, V]) ref(k K) verRef[K, V] {
	e := vm.m.entry(k)
	if e == nil {
		return verRef[K, V]{}
	}
	return verRef[K, V]{e: e, head: e.val.Load()}
}

// putRef prepends val as the version-ver bucket of k (writer only),
// through the handle ref obtained for k. When the head already carries
// ver — several mutations of one batch touching the same bucket — the
// head is superseded without growing the chain. Reports whether the key
// is new.
func (vm *verMap[K, V]) putRef(k K, ref verRef[K, V], ver uint64, val V) bool {
	prev := ref.head
	if prev != nil && prev.ver == ver {
		prev = prev.prev
	}
	n := &verNode[V]{ver: ver, val: val, prev: prev}
	if ref.e != nil {
		ref.e.val.Store(n)
		return false
	}
	vm.m.insert(k, n)
	return true
}

// rangeVisible calls f for every key with a bucket visible at ver.
// Iteration order is unspecified; callers sort.
func (vm *verMap[K, V]) rangeVisible(ver uint64, f func(K, V)) {
	vm.m.rangeAll(func(k K, head *verNode[V]) bool {
		for n := head; n != nil; n = n.prev {
			if n.ver <= ver {
				f(k, n.val)
				break
			}
		}
		return true
	})
}

// shared is the writer-owned overlay state behind every View of one base
// generation. The single writer (serialized by the owner) mutates it;
// concurrent readers reach it only through version-bounded Views.
type shared struct {
	g  *multigraph.Graph
	ix *index.Index

	baseNV, baseNA int

	// ver is the version of the newest published View (writer only).
	ver uint64

	// Exact-visibility overlay state: version-chained COW buckets.
	pairs    verMap[edgeKey, pairDelta]
	addAttrs verMap[dict.VertexID, []dict.AttrID]
	delAttrs verMap[dict.VertexID, []dict.AttrID]
	attrAdd  verMap[dict.AttrID, []dict.VertexID]
	attrDel  verMap[dict.AttrID, []dict.VertexID]

	// Touch lists are monotone supersets (entries are never removed even
	// when a pair delta cancels out): Neighbors re-verifies every touched
	// candidate against the version-exact pair delta, so stale entries
	// cost a probe, never a wrong answer. Values are sorted; published
	// headers are never shrunk or reordered (see addTouchEntry).
	outTouch swmap[dict.VertexID, []dict.VertexID]
	inTouch  swmap[dict.VertexID, []dict.VertexID]

	// touched lists vertices whose signature may exceed their base
	// signature, in first-touch order; Views capture a prefix and sort it
	// lazily. touchedSet dedupes appends (writer only).
	touched    []dict.VertexID
	touchedSet map[dict.VertexID]bool

	// Copy-on-write effort counters, cumulative for this generation: the
	// observability behind "overlay bytes copied per Apply".
	copiedEntries atomic.Uint64
	copiedBytes   atomic.Uint64
	// versions counts bucket versions retained since the generation
	// started. Unlike Size it never shrinks when adds and deletes cancel,
	// so owners use it as a churn-memory compaction trigger.
	versions atomic.Uint64
}

// nodeBytes is the rough bookkeeping overhead charged per retained
// bucket version when estimating copy-on-write bytes.
const nodeBytes = 48

// View is one immutable overlay snapshot over a frozen base generation.
// The zero value is not usable; start from NewView and evolve with Apply.
// A View is safe for concurrent readers, including readers concurrent
// with a later Apply on the same overlay.
//
// The embedded dict.Snapshot is the generation's dictionaries as this
// View was published: it implements dict.Resolver for the View and its
// lengths are the View's id bounds.
type View struct {
	dict.Snapshot

	sh  *shared
	ver uint64

	// touched is a prefix capture of the shared first-touch list (the
	// writer only ever appends beyond every published length); it is
	// sorted lazily below.
	touched []dict.VertexID

	touchOnce     sync.Once
	sortedTouched []dict.VertexID

	// Overlay entry counts visible at this version, maintained
	// incrementally by the writer (no O(overlay) recount at publish).
	edgeAdds, edgeDels int
	attrAdds, attrDels int
	numTriples         int // merged triple count (base ± overlay)
	newPairs           int // pairs with adds where the base had no edge

	// card caches the blended planner statistics (base counts corrected
	// by overlay adds/tombstones), computed lazily on first use because
	// most views are never planned against.
	cardOnce sync.Once
	card     *index.Cardinalities
}

// NewView returns the empty overlay over a frozen generation. Its
// dictionary snapshot is the graph's own (multigraph.Graph.Terms).
//
// Only one View lineage per graph may Apply: each lineage interns into
// the graph's Dicts, which have one writer. Further NewViews over the
// same graph that are only read are safe at any time.
func NewView(g *multigraph.Graph, ix *index.Index) *View {
	sh := &shared{
		g: g, ix: ix,
		baseNV:     g.NumVertices(),
		baseNA:     g.NumAttrs(),
		touchedSet: make(map[dict.VertexID]bool),
	}
	return &View{Snapshot: *g.Terms(), sh: sh, numTriples: g.NumTriples()}
}

// Base returns the frozen generation the view overlays.
func (v *View) Base() (*multigraph.Graph, *index.Index) { return v.sh.g, v.sh.ix }

// Empty reports whether the view holds no changes.
func (v *View) Empty() bool { return v.Adds() == 0 && v.Tombstones() == 0 }

// Size is the overlay's entry count (added triples + tombstones): the
// quantity compaction thresholds are measured against.
func (v *View) Size() int { return v.Adds() + v.Tombstones() }

// Adds reports the number of overlay-added triples.
func (v *View) Adds() int { return v.edgeAdds + v.attrAdds }

// Tombstones reports the number of tombstoned base triples.
func (v *View) Tombstones() int { return v.edgeDels + v.attrDels }

// NumTriples reports the merged triple count.
func (v *View) NumTriples() int { return v.numTriples }

// NumVertices reports |V| of the merged view.
func (v *View) NumVertices() int { return v.Vertices.Len() }

// NumEdgeTypes reports |T| of the merged view.
func (v *View) NumEdgeTypes() int { return v.Snapshot.EdgeTypes.Len() }

// NumAttrs reports |A| of the merged view.
func (v *View) NumAttrs() int { return v.Attrs.Len() }

// NumEdges estimates the merged distinct-pair edge count: the base count
// plus pairs the overlay created (tombstoned-empty pairs are not
// subtracted — the estimate is an upper bound used for stats only).
func (v *View) NumEdges() int { return v.sh.g.NumEdges() + v.newPairs }

// Versions reports the bucket versions the overlay has retained since
// its generation started. It grows with every write and never shrinks —
// even when adds and deletes cancel out of Size — so owners bound
// overlay memory by compacting on Versions as well as Size.
func (v *View) Versions() int { return int(v.sh.versions.Load()) }

// CopyStats reports the cumulative copy-on-write effort of the overlay's
// generation: buckets copied (entries) and an estimate of the bytes
// those copies retained. The per-Apply delta is how the write path's
// O(batch) claim is measured.
func (v *View) CopyStats() (entries, bytes uint64) {
	return v.sh.copiedEntries.Load(), v.sh.copiedBytes.Load()
}

// ---- index.Reader ------------------------------------------------------

// HasEdgeTypes reports whether from→to carries every type in want under
// the merged view: each type is an overlay addition on the pair, or a
// base label the overlay has not tombstoned.
func (v *View) HasEdgeTypes(from, to dict.VertexID, want []dict.EdgeType) bool {
	pd, ok := v.sh.pairs.get(edgeKey{from, to}, v.ver)
	inBase := int(from) < v.sh.baseNV && int(to) < v.sh.baseNV
	for i, t := range want {
		if ok && otil.ContainsSorted(pd.add, t) {
			continue
		}
		if !inBase || (ok && otil.ContainsSorted(pd.del, t)) || !v.sh.g.HasEdgeTypes(from, to, want[i:i+1]) {
			return false
		}
	}
	return true
}

// touchList returns the shared touch list of vid oriented by dir,
// trimmed to the View's vertex bound. Entries touched after this View
// published resolve to base-only pair deltas and would be filtered by
// the containment probe anyway; the bound cut just skips ids the View
// cannot name.
func (v *View) touchList(vid dict.VertexID, dir index.Direction) []dict.VertexID {
	m := &v.sh.outTouch
	if dir == index.Incoming {
		m = &v.sh.inTouch
	}
	x := m.load(vid)
	if x == nil {
		return nil
	}
	touch := *x
	bound := dict.VertexID(v.NumVertices())
	cut := sort.Search(len(touch), func(i int) bool { return touch[i] >= bound })
	return touch[:cut]
}

// Neighbors implements the N probe over the merged view: the base
// graph's answer, re-verified for pairs the overlay touched, merged with
// overlay-reachable neighbours that pass the same containment test.
func (v *View) Neighbors(vid dict.VertexID, dir index.Direction, types []dict.EdgeType) []dict.VertexID {
	base := index.NewReader(v.sh.g, v.sh.ix).Neighbors(vid, dir, types)
	touch := v.touchList(vid, dir)
	if len(touch) == 0 || len(types) == 0 { // no types name no neighbours
		return base
	}
	out := make([]dict.VertexID, 0, len(base)+len(touch))
	i, j := 0, 0
	for i < len(base) || j < len(touch) {
		switch {
		case j >= len(touch) || (i < len(base) && base[i] < touch[j]):
			// Base-only neighbour: no delta on the pair, answer stands.
			out = append(out, base[i])
			i++
		default:
			w, from, to := touch[j], vid, touch[j]
			if dir == index.Incoming {
				from, to = w, vid
			}
			if v.HasEdgeTypes(from, to, types) {
				out = append(out, w)
			}
			j++
			if i < len(base) && base[i] == w {
				i++
			}
		}
	}
	return out
}

// SignatureCandidates probes the base R-tree and unions in the touched
// vertices — whose merged signatures may dominate query synopses their
// base signatures did not. Per Lemma 1 the result is a superset of all
// true matches; the engine's exact probes prune the rest. The View's
// touched prefix is sorted once, on first use.
func (v *View) SignatureCandidates(q multigraph.Synopsis) []dict.VertexID {
	base := v.sh.ix.S.Candidates(q)
	if len(v.touched) == 0 {
		return base
	}
	v.touchOnce.Do(func() {
		st := make([]dict.VertexID, len(v.touched))
		copy(st, v.touched)
		slices.Sort(st)
		v.sortedTouched = st
	})
	return unionSorted(base, v.sortedTouched)
}

// attrVertices returns the merged inverted list of attribute a.
func (v *View) attrVertices(a dict.AttrID) []dict.VertexID {
	del, _ := v.sh.attrDel.get(a, v.ver)
	add, _ := v.sh.attrAdd.get(a, v.ver)
	return unionSorted(subtractSorted(v.sh.g.AttrVertices(a), del), add)
}

// VertexAttrs returns the sorted attribute ids vid carries under the
// merged view (base attributes minus tombstones plus overlay additions).
func (v *View) VertexAttrs(vid dict.VertexID) []dict.AttrID {
	var base []dict.AttrID
	if int(vid) < v.sh.baseNV {
		base = v.sh.g.Attrs(vid)
	}
	del, _ := v.sh.delAttrs.get(vid, v.ver)
	add, _ := v.sh.addAttrs.get(vid, v.ver)
	return unionSorted(subtractSorted(base, del), add)
}

// AttrCandidates returns the vertices carrying every attribute in attrs
// under the merged view (CᴬU of Algorithm 1): the merged lists intersected
// rarest first, as on the base; nil when attrs is empty. Without overlay
// attribute changes the merged lists are the base graph's own.
func (v *View) AttrCandidates(attrs []dict.AttrID) []dict.VertexID {
	lists := make([][]dict.VertexID, len(attrs))
	for i, a := range attrs {
		lists[i] = v.attrVertices(a)
	}
	return otil.IntersectAll(lists)
}

// HasAttrs reports whether vid carries every attribute in want (sorted)
// under the merged view.
func (v *View) HasAttrs(vid dict.VertexID, want []dict.AttrID) bool {
	add, _ := v.sh.addAttrs.get(vid, v.ver)
	del, _ := v.sh.delAttrs.get(vid, v.ver)
	for _, a := range want {
		if otil.ContainsSorted(add, a) {
			continue
		}
		if int(vid) < v.sh.baseNV && int(a) < v.sh.baseNA &&
			v.sh.g.HasAttrs(vid, []dict.AttrID{a}) && !otil.ContainsSorted(del, a) {
			continue
		}
		return false
	}
	return true
}

// Cardinalities returns planner statistics for the merged view: the base
// generation's per-edge-type counts blended with the overlay's additions
// and tombstones, so the cost planner doesn't order matching off stale
// counts when the overlay is large (e.g. an edge type that exists only
// in the overlay would otherwise estimate to zero and look spuriously
// selective). The blend is computed lazily, once per view, and cached —
// most views are never planned against. It is an estimate: deletions do
// not decrement the per-vertex counts (a tombstone may or may not remove
// a vertex's last edge of a type), which only ever errs toward the base
// generation's answer. Compaction still refreshes the statistics
// wholesale.
func (v *View) Cardinalities() *index.Cardinalities {
	base := v.sh.ix.Card
	if base == nil || v.Empty() {
		return base
	}
	v.cardOnce.Do(func() { v.card = v.blendCardinalities(base) })
	return v.card
}

// blendCardinalities clones the base statistics (extended over
// overlay-new edge types) and folds in the overlay's edge deltas.
func (v *View) blendCardinalities(base *index.Cardinalities) *index.Cardinalities {
	nT := v.NumEdgeTypes()
	c := &index.Cardinalities{
		OutVertices: make([]int, nT),
		InVertices:  make([]int, nT),
		Edges:       make([]int, nT),
		NumVertices: v.NumVertices(),
	}
	copy(c.OutVertices, base.OutVertices)
	copy(c.InVertices, base.InVertices)
	copy(c.Edges, base.Edges)

	type vertType struct {
		v dict.VertexID
		t dict.EdgeType
	}
	outGain := make(map[vertType]bool)
	inGain := make(map[vertType]bool)
	v.sh.pairs.rangeVisible(v.ver, func(k edgeKey, pd pairDelta) {
		for _, t := range pd.add {
			c.Edges[t]++
			outGain[vertType{k.from, t}] = true
			inGain[vertType{k.to, t}] = true
		}
		for _, t := range pd.del {
			// Tombstones only ever carry base types on base pairs, so the
			// decrement cannot underflow a correct base count; clamp anyway
			// for safety.
			if c.Edges[t] > 0 {
				c.Edges[t]--
			}
		}
	})
	// A vertex counts once per (type, side); overlay gains that the base
	// generation already counted (the vertex had a base edge of that type
	// on that side) must not count again. The probe is one trie lookup
	// per distinct gained (vertex, type) — bounded by the overlay size,
	// which compaction keeps small.
	countGains := func(gain map[vertType]bool, dir index.Direction, counts []int) {
		for key := range gain {
			if len(index.NewReader(v.sh.g, v.sh.ix).Neighbors(key.v, dir, []dict.EdgeType{key.t})) > 0 {
				continue
			}
			counts[key.t]++
		}
	}
	countGains(outGain, index.Outgoing, c.OutVertices)
	countGains(inGain, index.Incoming, c.InVertices)
	return c
}

// ---- enumeration -------------------------------------------------------

// walk enumerates the merged triple set by id: the base by vertex (its
// multi-edges by neighbour, then its attributes) less the tombstones, then
// the overlay's added edges and attributes, each by subject, object and
// type; an attribute is dict.EncodeAttrBinding(a) in the object slot. Only
// a vertex with an outgoing touch entry probes the pair map. It reads this
// View's version only and stops when yield returns false.
func (v *View) walk(yield func(s, o dict.VertexID, t dict.EdgeType) bool) bool {
	var out multigraph.MultiEdges
	for i := 0; i < v.sh.baseNV; i++ {
		vid := dict.VertexID(i)
		out.Regroup(v.sh.g.Out(vid))
		touched := v.sh.outTouch.load(vid) != nil
		for j := 0; j < out.Len(); j++ {
			var pd pairDelta
			if touched {
				pd, _ = v.sh.pairs.get(edgeKey{vid, out.V(j)}, v.ver)
			}
			for _, t := range out.Types(j) {
				if !otil.ContainsSorted(pd.del, t) && !yield(vid, out.V(j), t) {
					return false
				}
			}
		}
		da, _ := v.sh.delAttrs.get(vid, v.ver)
		for _, a := range v.sh.g.Attrs(vid) {
			if !otil.ContainsSorted(da, a) && !yield(vid, dict.EncodeAttrBinding(a), 0) {
				return false
			}
		}
	}
	type idTriple struct {
		s, o dict.VertexID
		t    dict.EdgeType
	}
	var edges, attrs []idTriple
	v.sh.pairs.rangeVisible(v.ver, func(k edgeKey, pd pairDelta) {
		for _, t := range pd.add {
			edges = append(edges, idTriple{k.from, k.to, t})
		}
	})
	v.sh.addAttrs.rangeVisible(v.ver, func(vid dict.VertexID, as []dict.AttrID) {
		for _, a := range as {
			attrs = append(attrs, idTriple{vid, dict.EncodeAttrBinding(a), 0})
		}
	})
	for _, ts := range [][]idTriple{edges, attrs} {
		slices.SortFunc(ts, func(a, b idTriple) int {
			return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.o, b.o), cmp.Compare(a.t, b.t))
		})
		for _, x := range ts {
			if !yield(x.s, x.o, x.t) {
				return false
			}
		}
	}
	return true
}

// Triples enumerates the merged triple set in the walk's order, resolved
// to strings, stopping early when yield returns false. Like the walk, it
// reflects exactly this View's version.
func (v *View) Triples(yield func(rdf.Triple) bool) bool {
	return v.walk(func(s, o dict.VertexID, t dict.EdgeType) bool {
		tr := rdf.Triple{S: rdf.NewResource(v.VertexIRI(s))}
		if dict.IsAttrBinding(o) {
			at := v.Attr(dict.AttrBinding(o))
			tr.P, tr.O = rdf.NewIRI(at.Predicate), at.Literal()
		} else {
			tr.P, tr.O = rdf.NewIRI(v.EdgeTypeIRI(t)), rdf.NewResource(v.VertexIRI(o))
		}
		return yield(tr)
	})
}

// Rebuild builds the merged view into a fresh generation: the graph a
// Builder fed Triples builds (same ids, dictionaries and encoding), but
// copying each live term into the new dictionaries once, on first sight,
// in Builder.Add's order. Its remaps are sized by the View's own bounds,
// so writers may intern meanwhile.
func (v *View) Rebuild() *multigraph.Graph {
	var b multigraph.Builder
	// Each remap holds the new id + 1, zero for a term not yet seen.
	vs := make([]dict.VertexID, v.NumVertices())
	ts := make([]dict.EdgeType, v.NumEdgeTypes())
	as := make([]dict.AttrID, v.NumAttrs())
	vertex := func(x dict.VertexID) dict.VertexID {
		if vs[x] == 0 {
			vs[x] = b.Dicts.InternVertex(v.VertexIRI(x)) + 1
		}
		return vs[x] - 1
	}
	v.walk(func(s, o dict.VertexID, t dict.EdgeType) bool {
		s = vertex(s)
		if a := dict.AttrBinding(o); dict.IsAttrBinding(o) {
			if as[a] == 0 {
				at := v.Attr(a)
				as[a] = b.Dicts.InternAttr(at.Predicate, at.Literal()) + 1
			}
			b.AddAttr(s, as[a]-1)
		} else {
			o = vertex(o)
			if ts[t] == 0 {
				ts[t] = b.Dicts.InternEdgeType(v.EdgeTypeIRI(t)) + 1
			}
			b.AddEdge(s, o, ts[t]-1)
		}
		return true
	})
	return b.Build()
}

// ---- mutation ----------------------------------------------------------

// ErrStaleApply is returned when Apply is called on a View that is no
// longer the newest of its overlay: the shared writer state has moved
// on, so evolving an older View would corrupt published snapshots.
var ErrStaleApply = errors.New("delta: Apply on a stale view (a newer view was already published)")

// Apply returns a new View with dels removed and adds inserted (dels
// first, so a triple in both sets ends up present). The receiver is
// unchanged and remains fully readable. Deleting an absent triple and
// inserting a present one are no-ops, mirroring SPARQL 1.1 Update
// semantics.
//
// Apply mutates the shared overlay in place — O(batch), not O(overlay) —
// so it must be called on the newest View only (ErrStaleApply
// otherwise), and calls must be serialized by the owner. Readers of any
// published View may run concurrently.
func (v *View) Apply(adds, dels []rdf.Triple) (*View, error) {
	for _, ts := range [][]rdf.Triple{dels, adds} {
		for _, t := range ts {
			if err := multigraph.Validate(t); err != nil {
				return nil, err
			}
		}
	}
	if v.ver != v.sh.ver {
		return nil, ErrStaleApply
	}
	w := &writer{
		sh:  v.sh,
		ver: v.ver + 1,
		nv: View{
			sh: v.sh, ver: v.ver + 1,
			edgeAdds: v.edgeAdds, edgeDels: v.edgeDels,
			attrAdds: v.attrAdds, attrDels: v.attrDels,
			numTriples: v.numTriples, newPairs: v.newPairs,
		},
	}
	for _, t := range dels {
		w.delete(t)
	}
	for _, t := range adds {
		w.insert(t)
	}
	return w.freeze(), nil
}

// writer is the transient single-Apply mutator: it stamps every bucket
// it rewrites with the next version and accumulates the new View's
// counters. Copy-effort counters batch locally and flush to the shared
// atomics once at freeze — the insert path is hot enough that a handful
// of atomic adds per triple shows up in profiles.
type writer struct {
	sh  *shared
	ver uint64
	nv  View // counters evolve here; freeze captures the rest

	copiedEntries uint64
	copiedBytes   uint64
	versions      uint64
}

func (w *writer) noteCopy(entries int) {
	w.copiedEntries += uint64(entries)
	w.copiedBytes += uint64(nodeBytes + 4*entries)
	w.versions++
}

// freeze publishes the batch: the new version becomes current and the
// View captures the dictionaries and its prefix of the touched list.
func (w *writer) freeze() *View {
	sh := w.sh
	sh.ver = w.ver
	if w.versions > 0 {
		sh.copiedEntries.Add(w.copiedEntries)
		sh.copiedBytes.Add(w.copiedBytes)
		sh.versions.Add(w.versions)
	}
	nv := &View{
		Snapshot: sh.g.Dicts.Snapshot(),
		sh:       sh, ver: w.ver,
		touched:  sh.touched,
		edgeAdds: w.nv.edgeAdds, edgeDels: w.nv.edgeDels,
		attrAdds: w.nv.attrAdds, attrDels: w.nv.attrDels,
		numTriples: w.nv.numTriples, newPairs: w.nv.newPairs,
	}
	return nv
}

// internVertex resolves or assigns a vertex id in the generation's Mv.
// A new vertex is touched, so that SignatureCandidates offers it.
func (w *writer) internVertex(iri string) dict.VertexID {
	d := &w.sh.g.Dicts
	n := d.Vertices.Len()
	id := d.InternVertex(iri)
	if int(id) == n {
		w.touch(id)
	}
	return id
}

// baseHasEdge reports whether the frozen base carries type et on s→o.
func (w *writer) baseHasEdge(s, o dict.VertexID, et dict.EdgeType) bool {
	return int(s) < w.sh.baseNV && int(o) < w.sh.baseNV &&
		w.sh.g.HasEdgeTypes(s, o, []dict.EdgeType{et})
}

// basePairExists reports whether the frozen base has any edge on the pair:
// whether any of the source's runs holds the target.
func (w *writer) basePairExists(k edgeKey) bool {
	if int(k.from) >= w.sh.baseNV || int(k.to) >= w.sh.baseNV {
		return false
	}
	out := w.sh.g.Out(k.from)
	for _, t := range out.Types {
		if otil.ContainsSorted(out.List(t), k.to) {
			return true
		}
	}
	return false
}

// baseHasAttr reports whether the frozen base carries attribute a on s.
func (w *writer) baseHasAttr(s dict.VertexID, a dict.AttrID) bool {
	return int(s) < w.sh.baseNV && int(a) < w.sh.baseNA &&
		w.sh.g.HasAttrs(s, []dict.AttrID{a})
}

func (w *writer) touch(vid dict.VertexID) {
	if w.sh.touchedSet[vid] {
		return
	}
	w.sh.touchedSet[vid] = true
	w.sh.touched = append(w.sh.touched, vid)
}

// setPair installs a new pair-delta bucket (ref is the pair's current
// bucket handle); a brand-new pair key also registers both endpoints in
// the (monotone) touch lists.
func (w *writer) setPair(k edgeKey, ref verRef[edgeKey, pairDelta], pd pairDelta) {
	w.noteCopy(len(pd.add) + len(pd.del))
	if w.sh.pairs.putRef(k, ref, w.ver, pd) {
		w.addTouchEntry(&w.sh.outTouch, k.from, k.to)
		w.addTouchEntry(&w.sh.inTouch, k.to, k.from)
	}
}

// addTouchEntry appends nb to vid's touch list. New neighbours mostly
// carry fresh, ascending vertex ids, so the common case extends the
// list in place — amortized O(1), which keeps hub vertices (one object
// shared by a whole stream of inserts) from turning every insert into
// an O(degree) copy. Extending in place is safe for concurrent readers:
// a published slice header bounds what its holder may read, and the
// cell past it has never been visible. The rare out-of-order id falls
// back to a sorted copy-insert.
func (w *writer) addTouchEntry(m *swmap[dict.VertexID, []dict.VertexID], vid, nb dict.VertexID) {
	e := m.entry(vid)
	var cur []dict.VertexID
	if e != nil {
		cur = *e.val.Load()
	}
	var next []dict.VertexID
	if n := len(cur); n == 0 || cur[n-1] < nb {
		w.noteCopy(1)
		next = append(cur, nb)
	} else {
		w.noteCopy(len(cur) + 1)
		next = insertSorted(cur, nb)
	}
	if e != nil {
		e.val.Store(&next)
		return
	}
	m.insert(vid, &next)
}

// setAttrSet installs a per-vertex attribute bucket (fwdRef is its
// current bucket handle) and mirrors it into the matching inverted list
// (the overlay's mini A index).
func (w *writer) setAttrSet(fwd *verMap[dict.VertexID, []dict.AttrID], inv *verMap[dict.AttrID, []dict.VertexID],
	vid dict.VertexID, fwdRef verRef[dict.VertexID, []dict.AttrID], as []dict.AttrID, a dict.AttrID, addInv bool) {
	w.noteCopy(len(as))
	fwd.putRef(vid, fwdRef, w.ver, as)
	invRef := inv.ref(a)
	var vs []dict.VertexID
	if invRef.head != nil {
		vs = invRef.head.val
	}
	if addInv {
		vs = insertSorted(vs, vid)
	} else {
		vs = removeSorted(vs, vid)
	}
	w.noteCopy(len(vs))
	inv.putRef(a, invRef, w.ver, vs)
}

// insert applies one triple addition (validated by the caller).
func (w *writer) insert(t rdf.Triple) {
	s := w.internVertex(t.S.Value)
	if t.O.IsLiteral() {
		a := w.sh.g.Dicts.InternAttr(t.P.Value, t.O)
		if daR := w.sh.delAttrs.ref(s); daR.head != nil && otil.ContainsSorted(daR.head.val, a) {
			w.setAttrSet(&w.sh.delAttrs, &w.sh.attrDel, s, daR, removeSorted(daR.head.val, a), a, false)
			w.nv.attrDels--
			w.nv.numTriples++
			return
		}
		if w.baseHasAttr(s, a) {
			return
		}
		aaR := w.sh.addAttrs.ref(s)
		var aa []dict.AttrID
		if aaR.head != nil {
			aa = aaR.head.val
		}
		if otil.ContainsSorted(aa, a) {
			return
		}
		w.setAttrSet(&w.sh.addAttrs, &w.sh.attrAdd, s, aaR, insertSorted(aa, a), a, true)
		w.nv.attrAdds++
		w.nv.numTriples++
		return
	}
	o := w.internVertex(t.O.Value)
	et := w.sh.g.Dicts.InternEdgeType(t.P.Value)
	k := edgeKey{s, o}
	ref := w.sh.pairs.ref(k)
	var pd pairDelta
	if ref.head != nil {
		pd = ref.head.val
	}
	if ref.head != nil && otil.ContainsSorted(pd.del, et) {
		w.setPair(k, ref, pairDelta{add: pd.add, del: removeSorted(pd.del, et)})
		w.nv.edgeDels--
		w.nv.numTriples++
		return
	}
	if w.baseHasEdge(s, o, et) {
		return
	}
	if ref.head != nil && otil.ContainsSorted(pd.add, et) {
		return
	}
	if len(pd.add) == 0 && !w.basePairExists(k) {
		w.nv.newPairs++
	}
	w.setPair(k, ref, pairDelta{add: insertSorted(pd.add, et), del: pd.del})
	w.touch(s)
	w.touch(o)
	w.nv.edgeAdds++
	w.nv.numTriples++
}

// delete applies one triple removal (validated by the caller). Removing
// a triple the merged view does not contain is a no-op.
func (w *writer) delete(t rdf.Triple) {
	s, ok := w.lookupVertex(t.S.Value)
	if !ok {
		return
	}
	if t.O.IsLiteral() {
		a, ok := w.lookupAttr(t.P.Value, t.O)
		if !ok {
			return
		}
		if aaR := w.sh.addAttrs.ref(s); aaR.head != nil && otil.ContainsSorted(aaR.head.val, a) {
			w.setAttrSet(&w.sh.addAttrs, &w.sh.attrAdd, s, aaR, removeSorted(aaR.head.val, a), a, false)
			w.nv.attrAdds--
			w.nv.numTriples--
			return
		}
		daR := w.sh.delAttrs.ref(s)
		var da []dict.AttrID
		if daR.head != nil {
			da = daR.head.val
		}
		if w.baseHasAttr(s, a) && !otil.ContainsSorted(da, a) {
			w.setAttrSet(&w.sh.delAttrs, &w.sh.attrDel, s, daR, insertSorted(da, a), a, true)
			w.nv.attrDels++
			w.nv.numTriples--
		}
		return
	}
	o, ok := w.lookupVertex(t.O.Value)
	if !ok {
		return
	}
	et, ok := w.lookupEdgeType(t.P.Value)
	if !ok {
		return
	}
	k := edgeKey{s, o}
	ref := w.sh.pairs.ref(k)
	var pd pairDelta
	if ref.head != nil {
		pd = ref.head.val
	}
	if ref.head != nil && otil.ContainsSorted(pd.add, et) {
		add := removeSorted(pd.add, et)
		if len(add) == 0 && !w.basePairExists(k) {
			w.nv.newPairs--
		}
		w.setPair(k, ref, pairDelta{add: add, del: pd.del})
		w.nv.edgeAdds--
		w.nv.numTriples--
		return
	}
	if w.baseHasEdge(s, o, et) && !(ref.head != nil && otil.ContainsSorted(pd.del, et)) {
		w.setPair(k, ref, pairDelta{add: pd.add, del: insertSorted(pd.del, et)})
		w.nv.edgeDels++
		w.nv.numTriples--
	}
}

func (w *writer) lookupVertex(iri string) (dict.VertexID, bool) {
	id, ok := w.sh.g.Dicts.Vertices.Lookup(iri)
	return dict.VertexID(id), ok
}

func (w *writer) lookupEdgeType(p string) (dict.EdgeType, bool) {
	id, ok := w.sh.g.Dicts.EdgeTypes.Lookup(p)
	return dict.EdgeType(id), ok
}

func (w *writer) lookupAttr(p string, o rdf.Term) (dict.AttrID, bool) {
	return w.sh.g.Dicts.Attrs.Lookup(dict.AttributeOf(p, o))
}

// ---- sorted-slice helpers ----------------------------------------------

// insertSorted returns a new sorted slice with x inserted (the input is
// never modified — buckets are immutable once published). Inserting a
// present element copies but does not duplicate.
func insertSorted[T ~uint32](a []T, x T) []T {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	if i < len(a) && a[i] == x {
		out := make([]T, len(a))
		copy(out, a)
		return out
	}
	out := make([]T, 0, len(a)+1)
	out = append(out, a[:i]...)
	out = append(out, x)
	return append(out, a[i:]...)
}

// removeSorted returns a new sorted slice without x; nil when the result
// is empty (so emptied buckets compare like absent ones).
func removeSorted[T ~uint32](a []T, x T) []T {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= x })
	if i >= len(a) || a[i] != x {
		out := make([]T, len(a))
		copy(out, a)
		return out
	}
	if len(a) == 1 {
		return nil
	}
	out := make([]T, 0, len(a)-1)
	out = append(out, a[:i]...)
	return append(out, a[i+1:]...)
}

// unionSorted merges two sorted, duplicate-free slices into a new sorted,
// duplicate-free slice.
func unionSorted[T ~uint32](a, b []T) []T {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// subtractSorted returns a \ b for sorted slices.
func subtractSorted[T ~uint32](a, b []T) []T {
	if len(b) == 0 || len(a) == 0 {
		return a
	}
	out := make([]T, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
