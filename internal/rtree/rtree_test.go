package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randPoint(rng *rand.Rand) Point {
	var p Point
	for d := 0; d < Dims; d++ {
		p[d] = int32(rng.Intn(41) - 20)
	}
	return p
}

// linearDominating is the reference implementation: a full scan.
func linearDominating(points []Point, q Point) []uint32 {
	var out []uint32
	for i, p := range points {
		ok := true
		for d := 0; d < Dims; d++ {
			if p[d] < q[d] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, uint32(i))
		}
	}
	return out
}

func sortedIDs(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint32) bool {
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

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.CollectDominating(Point{}); got != nil {
		t.Errorf("search on empty tree = %v", got)
	}
	if d := tr.Depth(); d != 0 {
		t.Errorf("Depth = %d, want 0", d)
	}
	bt := BulkLoad(nil, nil)
	if bt.Len() != 0 || bt.CollectDominating(Point{}) != nil {
		t.Error("empty bulk-loaded tree misbehaves")
	}
}

func TestSinglePoint(t *testing.T) {
	tr := New()
	p := Point{1, 2, 3, 4, 5, 6, 7, 8}
	tr.Insert(p, 42)
	if got := tr.CollectDominating(p); !equalIDs(got, []uint32{42}) {
		t.Errorf("exact query = %v", got)
	}
	if got := tr.CollectDominating(Point{0, 0, 0, 0, 0, 0, 0, 0}); !equalIDs(got, []uint32{42}) {
		t.Errorf("origin query = %v", got)
	}
	higher := p
	higher[3]++
	if got := tr.CollectDominating(higher); len(got) != 0 {
		t.Errorf("strictly-above query = %v, want empty", got)
	}
}

func TestInsertMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(800)
		points := make([]Point, n)
		tr := New()
		for i := range points {
			points[i] = randPoint(rng)
			tr.Insert(points[i], uint32(i))
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 50; q++ {
			query := randPoint(rng)
			want := sortedIDs(linearDominating(points, query))
			got := sortedIDs(tr.CollectDominating(query))
			if !equalIDs(got, want) {
				t.Fatalf("trial %d query %v: got %v, want %v", trial, query, got, want)
			}
		}
	}
}

func TestBulkLoadMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(2000)
		points := make([]Point, n)
		ids := make([]uint32, n)
		for i := range points {
			points[i] = randPoint(rng)
			ids[i] = uint32(i)
		}
		tr := BulkLoad(points, ids)
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for q := 0; q < 50; q++ {
			query := randPoint(rng)
			want := sortedIDs(linearDominating(points, query))
			got := sortedIDs(tr.CollectDominating(query))
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BulkLoad with mismatched lengths did not panic")
		}
	}()
	BulkLoad(make([]Point, 2), make([]uint32, 3))
}

func TestEarlyTermination(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(Point{}, uint32(i))
	}
	count := 0
	tr.SearchDominating(Point{}, func(id uint32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("visited %d entries, want early stop at 5", count)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New()
	p := Point{1, 1, 1, 1, 1, 1, 1, 1}
	for i := 0; i < 50; i++ {
		tr.Insert(p, uint32(i))
	}
	got := tr.CollectDominating(p)
	if len(got) != 50 {
		t.Errorf("got %d duplicates, want 50", len(got))
	}
}

func TestTreeGrowsInDepth(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		tr.Insert(randPoint(rng), uint32(i))
	}
	if d := tr.Depth(); d < 3 {
		t.Errorf("Depth = %d after 5000 inserts, want ≥ 3", d)
	}
	// Every point remains findable via the origin-at-minimum query.
	minQ := Point{-20, -20, -20, -20, -20, -20, -20, -20}
	if got := tr.CollectDominating(minQ); len(got) != 5000 {
		t.Errorf("full-range query returned %d of 5000", len(got))
	}
}

// TestInsertEqualsBulkLoadProperty: both construction paths answer
// identically for arbitrary inputs.
func TestInsertEqualsBulkLoadProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		points := make([]Point, count)
		ids := make([]uint32, count)
		ins := New()
		for i := range points {
			points[i] = randPoint(rng)
			ids[i] = uint32(i)
			ins.Insert(points[i], ids[i])
		}
		bulk := BulkLoad(points, ids)
		for q := 0; q < 10; q++ {
			query := randPoint(rng)
			if !equalIDs(sortedIDs(ins.CollectDominating(query)), sortedIDs(bulk.CollectDominating(query))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInsertAfterBulkLoad: a bulk-loaded level's nodes share one sorted
// array, so an Insert that grows a node must copy it out rather than
// overwrite its neighbour's entries.
func TestInsertAfterBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	points := make([]Point, 600)
	ids := make([]uint32, len(points))
	for i := range points {
		points[i] = randPoint(rng)
		ids[i] = uint32(i)
	}
	tr := BulkLoad(points[:400], ids[:400])
	for i := 400; i < len(points); i++ {
		tr.Insert(points[i], ids[i])
	}
	for q := 0; q < 100; q++ {
		query := randPoint(rng)
		if got, want := sortedIDs(tr.CollectDominating(query)), sortedIDs(linearDominating(points, query)); !equalIDs(got, want) {
			t.Fatalf("query %v: got %d ids, want %d", query, len(got), len(want))
		}
	}
}
