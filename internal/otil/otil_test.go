package otil

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dict"
)

func types(ts ...dict.EdgeType) []dict.EdgeType { return ts }
func verts(vs ...dict.VertexID) []dict.VertexID { return vs }

func equalVerts(a, b []dict.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildFigure3 reproduces the N+ trie of the paper's Figure 3b: the
// incoming neighbourhood of data vertex v2 (London). Multi-edges:
//
//	v3 —t1→ v2,  v1 —{t4,t5}→ v2,  v7 —t5→ v2,  v0 —t6→ v2
func buildFigure3() *Trie {
	var tr Trie
	tr.Insert(types(1), 3)    // England, hasCapital
	tr.Insert(types(4, 5), 1) // Amy, {diedIn, wasBornIn}
	tr.Insert(types(5), 7)    // Nolan, wasBornIn
	tr.Insert(types(6), 0)    // Music_Band, wasFormedIn
	return &tr
}

func TestFigure3SingleTypeLookups(t *testing.T) {
	tr := buildFigure3()
	// Paper example: fetching all data vertices with edge type t5 directed
	// towards v2 yields {v1, v7}.
	if got := tr.Lookup(types(5)); !equalVerts(got, verts(1, 7)) {
		t.Errorf("Lookup(t5) = %v, want [1 7]", got)
	}
	if got := tr.Lookup(types(1)); !equalVerts(got, verts(3)) {
		t.Errorf("Lookup(t1) = %v, want [3]", got)
	}
	if got := tr.Lookup(types(4)); !equalVerts(got, verts(1)) {
		t.Errorf("Lookup(t4) = %v, want [1]", got)
	}
	if got := tr.Lookup(types(9)); got != nil {
		t.Errorf("Lookup(absent type) = %v, want nil", got)
	}
}

func TestFigure3MultiTypeLookup(t *testing.T) {
	tr := buildFigure3()
	if got := tr.Lookup(types(4, 5)); !equalVerts(got, verts(1)) {
		t.Errorf("Lookup({t4,t5}) = %v, want [1]", got)
	}
	// No neighbour carries both t1 and t5.
	if got := tr.Lookup(types(1, 5)); got != nil {
		t.Errorf("Lookup({t1,t5}) = %v, want nil", got)
	}
}

func TestNeighborsInvertedList(t *testing.T) {
	tr := buildFigure3()
	if got := tr.Neighbors(5); !equalVerts(got, verts(1, 7)) {
		t.Errorf("Neighbors(t5) = %v", got)
	}
	if got := tr.Neighbors(42); got != nil {
		t.Errorf("Neighbors(absent) = %v", got)
	}
}

func TestEmptyQueryAndEmptyTrie(t *testing.T) {
	var tr Trie
	if got := tr.Lookup(types(1)); got != nil {
		t.Errorf("Lookup on empty trie = %v", got)
	}
	full := buildFigure3()
	if got := full.Lookup(nil); got != nil {
		t.Errorf("empty query = %v, want nil", got)
	}
	if got := full.LookupTrie(nil); got != nil {
		t.Errorf("empty trie query = %v, want nil", got)
	}
	if tr.Len() != 0 || full.Len() != 4 {
		t.Errorf("Len = %d, %d", tr.Len(), full.Len())
	}
}

func TestInsertEmptyMultiEdgeIgnored(t *testing.T) {
	var tr Trie
	tr.Insert(nil, 9)
	if tr.Len() != 0 {
		t.Error("empty multi-edge should be ignored")
	}
}

func TestTrieAndInvertedListAgree(t *testing.T) {
	tr := buildFigure3()
	queries := [][]dict.EdgeType{
		types(1), types(4), types(5), types(6), types(4, 5), types(1, 4), types(7),
	}
	for _, q := range queries {
		a := tr.Lookup(q)
		b := tr.LookupTrie(q)
		if !equalVerts(a, b) {
			t.Errorf("query %v: inverted %v, trie %v", q, a, b)
		}
	}
}

func TestSharedPrefixPaths(t *testing.T) {
	var tr Trie
	tr.Insert(types(1, 2), 10)
	tr.Insert(types(1, 3), 11)
	tr.Insert(types(1), 12)
	tr.Insert(types(1, 2, 3), 13)

	if got := tr.Lookup(types(1)); !equalVerts(got, verts(10, 11, 12, 13)) {
		t.Errorf("Lookup(1) = %v", got)
	}
	if got := tr.Lookup(types(1, 2)); !equalVerts(got, verts(10, 13)) {
		t.Errorf("Lookup(1,2) = %v", got)
	}
	if got := tr.Lookup(types(2, 3)); !equalVerts(got, verts(13)) {
		t.Errorf("Lookup(2,3) = %v", got)
	}
	if got := tr.LookupTrie(types(2, 3)); !equalVerts(got, verts(13)) {
		t.Errorf("LookupTrie(2,3) = %v", got)
	}
	// Skip-descent must find type 3 even when preceded by unmatched types.
	if got := tr.LookupTrie(types(3)); !equalVerts(got, verts(11, 13)) {
		t.Errorf("LookupTrie(3) = %v", got)
	}
}

func TestDuplicateInsertsCollapse(t *testing.T) {
	var tr Trie
	tr.Insert(types(2), 5)
	tr.Insert(types(2), 5)
	if got := tr.Lookup(types(2)); !equalVerts(got, verts(5)) {
		t.Errorf("Lookup after duplicate insert = %v", got)
	}
}

func TestInsertAfterFinalize(t *testing.T) {
	var tr Trie
	tr.Insert(types(1), 1)
	if got := tr.Lookup(types(1)); !equalVerts(got, verts(1)) {
		t.Fatalf("first lookup = %v", got)
	}
	tr.Insert(types(1), 0) // out of order on purpose
	if got := tr.Lookup(types(1)); !equalVerts(got, verts(0, 1)) {
		t.Errorf("lookup after re-insert = %v, want re-finalized sorted list", got)
	}
}

// TestLookupEquivalenceProperty: on random tries, the inverted-list
// intersection and the trie walk agree for all query sizes, and both agree
// with brute force over the inserted multi-edges.
func TestLookupEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Trie
		const nTypes = 8
		edges := make(map[dict.VertexID][]dict.EdgeType)
		for v := dict.VertexID(0); v < 30; v++ {
			k := 1 + rng.Intn(4)
			set := map[dict.EdgeType]struct{}{}
			for len(set) < k {
				set[dict.EdgeType(rng.Intn(nTypes))] = struct{}{}
			}
			me := make([]dict.EdgeType, 0, k)
			for et := range set {
				me = append(me, et)
			}
			sortTypes(me)
			edges[v] = me
			tr.Insert(me, v)
		}
		for q := 0; q < 25; q++ {
			k := 1 + rng.Intn(3)
			set := map[dict.EdgeType]struct{}{}
			for len(set) < k {
				set[dict.EdgeType(rng.Intn(nTypes))] = struct{}{}
			}
			query := make([]dict.EdgeType, 0, k)
			for et := range set {
				query = append(query, et)
			}
			sortTypes(query)

			var want []dict.VertexID
			for v := dict.VertexID(0); v < 30; v++ {
				if containsAll(edges[v], query) {
					want = append(want, v)
				}
			}
			got := tr.Lookup(query)
			gotTrie := tr.LookupTrie(query)
			if !equalVerts(got, want) || !equalVerts(gotTrie, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sortTypes(ts []dict.EdgeType) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1] > ts[j]; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

func containsAll(have, want []dict.EdgeType) bool {
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

func TestIntersectSorted(t *testing.T) {
	tests := []struct {
		a, b, want []dict.VertexID
	}{
		{verts(1, 2, 3), verts(2, 3, 4), verts(2, 3)},
		{verts(1, 2), verts(3, 4), nil},
		{nil, verts(1), nil},
		{verts(5), verts(5), verts(5)},
		{verts(1, 3, 5, 7, 9), verts(3, 7), verts(3, 7)},
	}
	for _, tc := range tests {
		if got := IntersectSorted(tc.a, tc.b); !equalVerts(got, tc.want) {
			t.Errorf("IntersectSorted(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestIntersectAll: the rarest-first intersection of any number of lists
// equals pairwise intersection, returns nil for no lists or an empty one,
// and always returns a fresh slice, even for a single list.
func TestIntersectAll(t *testing.T) {
	tests := []struct {
		lists [][]dict.VertexID
		want  []dict.VertexID
	}{
		{nil, nil},
		{[][]dict.VertexID{verts(1, 2, 3)}, verts(1, 2, 3)},
		{[][]dict.VertexID{verts(1, 2, 3), nil}, nil},
		{[][]dict.VertexID{verts(1, 2, 3, 4, 5), verts(2, 4, 5), verts(1, 2, 5, 9)}, verts(2, 5)},
		{[][]dict.VertexID{verts(1, 3, 5, 7, 9), verts(2, 4, 6, 8), verts(1, 2)}, nil},
		{[][]dict.VertexID{verts(7), verts(1, 7, 9), verts(7, 8)}, verts(7)},
	}
	for _, tc := range tests {
		got := IntersectAll(tc.lists)
		if !equalVerts(got, tc.want) || (tc.want == nil) != (got == nil) {
			t.Errorf("IntersectAll(%v) = %v, want %v", tc.lists, got, tc.want)
		}
		for _, lst := range tc.lists {
			if len(got) > 0 && len(lst) > 0 && &lst[0] == &got[0] {
				t.Errorf("IntersectAll(%v) aliases an input list", tc.lists)
			}
		}
	}
}

// TestPostingsLookupLeavesIndexIntact: multi-type lookups intersect into
// their own result slice — through three and more lists, in place — and
// never write the stored lists a single-type lookup hands out.
func TestPostingsLookupLeavesIndexIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var tr Trie
	const nTypes = 300 // a hub: more types than any fixed-size scratch
	for v := dict.VertexID(0); v < 400; v++ {
		me := types(0, 1)
		for et := dict.EdgeType(2); et < nTypes; et++ {
			if rng.Intn(3) == 0 {
				me = append(me, et)
			}
		}
		tr.Insert(me, v)
	}
	tr.Finalize()
	before := make(map[dict.EdgeType][]dict.VertexID)
	for et := dict.EdgeType(0); et < nTypes; et++ {
		before[et] = append([]dict.VertexID(nil), tr.Lookup(types(et))...)
	}
	for i := 0; i < 200; i++ {
		q := types(0, 1)
		for et := dict.EdgeType(2); et < nTypes && len(q) < 2+rng.Intn(12); et += dict.EdgeType(1 + rng.Intn(40)) {
			q = append(q, et)
		}
		if got, want := tr.Lookup(q), tr.LookupTrie(q); !equalVerts(got, want) {
			t.Fatalf("Lookup(%v) = %v, trie walk says %v", q, got, want)
		}
	}
	for et, want := range before {
		if got := tr.Lookup(types(et)); !equalVerts(got, want) {
			t.Fatalf("stored list of type %d changed under multi-type lookups", et)
		}
	}
}
