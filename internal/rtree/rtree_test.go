package rtree

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
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

// load bulk-loads points with ids 0..n-1.
func load(points []Point) *Tree {
	ids := make([]uint32, len(points))
	for i := range ids {
		ids[i] = uint32(i)
	}
	return BulkLoad(points, ids)
}

// TestEntrySize pins the served entry at an upper corner and a reference.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 36 {
		t.Errorf("entry is %d bytes, want 36", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, nil)
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Errorf("Len = %d, Bytes = %d", tr.Len(), tr.Bytes())
	}
	if got := tr.CollectDominating(Point{}); got != nil {
		t.Errorf("search on empty tree = %v", got)
	}
	if got := (&Tree{}).CollectDominating(Point{}); got != nil {
		t.Errorf("search on zero tree = %v", got)
	}
}

func TestSinglePoint(t *testing.T) {
	p := Point{1, 2, 3, 4, 5, 6, 7, 8}
	tr := BulkLoad([]Point{p}, []uint32{42})
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

func TestBulkLoadMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(2000)
		points := make([]Point, n)
		for i := range points {
			points[i] = randPoint(rng)
		}
		tr := load(points)
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

// TestLevelBoundarySizes: at sizes around the node capacity and its
// powers, with most points duplicated, the tree has the expected height,
// every upper entry's corner is the maximum of exactly the child node it
// references, every entry of a level is referenced once, and searches
// equal the linear scan.
func TestLevelBoundarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ n, levels int }{
		{0, 0}, {1, 1}, {15, 1}, {16, 1}, {17, 2}, {255, 2}, {256, 2}, {257, 3}, {4097, 4},
	} {
		points := make([]Point, c.n)
		for i := range points {
			// Coordinates in 0..2 make most points duplicates.
			for d := 0; d < Dims; d++ {
				points[i][d] = int32(rng.Intn(3))
			}
		}
		tr := load(points)
		if tr.Len() != c.n || len(tr.levels) != c.levels {
			t.Fatalf("n=%d: Len %d, %d levels, want %d levels", c.n, tr.Len(), len(tr.levels), c.levels)
		}
		for l := 1; l < len(tr.levels); l++ {
			below := tr.levels[l-1]
			seen := make([]bool, len(below))
			for _, e := range tr.levels[l] {
				first := int(e.ref)
				if first%fanout != 0 || first >= len(below) {
					t.Fatalf("n=%d level %d: child reference %d of %d entries", c.n, l, first, len(below))
				}
				var corner Point
				for i := range corner {
					corner[i] = -1 << 31
				}
				for j := first; j < min(first+fanout, len(below)); j++ {
					seen[j] = true
					for d := 0; d < Dims; d++ {
						corner[d] = max(corner[d], below[j].max[d])
					}
				}
				if corner != e.max {
					t.Fatalf("n=%d level %d: corner %v, children reach %v", c.n, l, e.max, corner)
				}
			}
			for j, ok := range seen {
				if !ok {
					t.Fatalf("n=%d level %d: entry %d unreachable", c.n, l-1, j)
				}
			}
		}
		if got := tr.CollectDominating(Point{}); len(got) != c.n {
			t.Fatalf("n=%d: origin query returned %d", c.n, len(got))
		}
		for q := 0; q < 40; q++ {
			var query Point
			for d := 0; d < Dims; d++ {
				query[d] = int32(rng.Intn(3))
			}
			want := sortedIDs(linearDominating(points, query))
			if got := sortedIDs(tr.CollectDominating(query)); !equalIDs(got, want) {
				t.Fatalf("n=%d query %v: got %d ids, want %d", c.n, query, len(got), len(want))
			}
		}
	}
}

// TestBulkLoadProperty: for arbitrary inputs, including ids that are not
// positions, every search equals the linear scan.
func TestBulkLoadProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n % 600)
		points := make([]Point, count)
		ids := make([]uint32, count)
		for i := range points {
			points[i] = randPoint(rng)
			ids[i] = uint32(3*i + 1)
		}
		tr := BulkLoad(points, ids)
		for q := 0; q < 10; q++ {
			query := randPoint(rng)
			want := linearDominating(points, query)
			for i := range want {
				want[i] = 3*want[i] + 1
			}
			if !equalIDs(sortedIDs(tr.CollectDominating(query)), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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
	tr := load(make([]Point, 100))
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
	p := Point{1, 1, 1, 1, 1, 1, 1, 1}
	points := make([]Point, 50)
	for i := range points {
		points[i] = p
	}
	got := load(points).CollectDominating(p)
	if len(got) != 50 {
		t.Errorf("got %d duplicates, want 50", len(got))
	}
}

func TestTreeGrowsInDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points := make([]Point, 5000)
	for i := range points {
		points[i] = randPoint(rng)
	}
	tr := load(points)
	// 5000 leaves pack into 313, 20 and then 2 root entries.
	if d := len(tr.levels); d != 4 {
		t.Errorf("%d levels for 5000 points, want 4", d)
	}
	// Every point remains findable via the origin-at-minimum query.
	minQ := Point{-20, -20, -20, -20, -20, -20, -20, -20}
	if got := tr.CollectDominating(minQ); len(got) != 5000 {
		t.Errorf("full-range query returned %d of 5000", len(got))
	}
}

// TestHeapPerPoint: a bulk-loaded tree of N points retains at most 40
// bytes per point — a 36-byte leaf plus the levels above it — and Bytes
// reports what it retains.
func TestHeapPerPoint(t *testing.T) {
	const n = 100000
	rng := rand.New(rand.NewSource(8))
	points := make([]Point, n)
	ids := make([]uint32, n)
	for i := range points {
		points[i] = randPoint(rng)
		ids[i] = uint32(i)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	tr := BulkLoad(points, ids)
	grew := int64(heap()) - int64(before)
	t.Logf("%.1f bytes per point retained, Bytes() = %.1f per point", float64(grew)/n, float64(tr.Bytes())/n)
	if limit := int64(n * 40); grew > limit {
		t.Errorf("bulk-loading %d points retained %d bytes (%.1f per point), want at most %d",
			n, grew, float64(grew)/n, limit)
	}
	if b := tr.Bytes(); b < n*36 || b > grew+4096 {
		t.Errorf("Bytes() = %d for %d points retaining %d bytes", b, n, grew)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(points)
	runtime.KeepAlive(ids)
}
