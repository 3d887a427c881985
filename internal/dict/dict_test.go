package dict

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/rdf"
)

func TestStringDictInternIsIdempotent(t *testing.T) {
	var d StringDict
	a := d.Intern("http://x/a")
	b := d.Intern("http://x/b")
	if a == b {
		t.Fatalf("distinct strings share id %d", a)
	}
	if again := d.Intern("http://x/a"); again != a {
		t.Errorf("re-Intern = %d, want %d", again, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestStringDictDenseIDs(t *testing.T) {
	var d StringDict
	for i := 0; i < 100; i++ {
		id := d.Intern(fmt.Sprintf("s%d", i))
		if id != uint32(i) {
			t.Fatalf("Intern #%d = %d, want dense", i, id)
		}
	}
}

func TestStringDictLookup(t *testing.T) {
	var d StringDict
	d.Intern("present")
	if id, ok := d.Lookup("present"); !ok || id != 0 {
		t.Errorf("Lookup(present) = %d, %v", id, ok)
	}
	if _, ok := d.Lookup("absent"); ok {
		t.Error("Lookup(absent) succeeded")
	}
}

func TestStringDictValuePanicsOutOfRange(t *testing.T) {
	var d StringDict
	d.Intern("only")
	defer func() {
		if recover() == nil {
			t.Error("Value(99) did not panic")
		}
	}()
	d.Value(99)
}

func TestAttrDict(t *testing.T) {
	var d AttrDict
	a0 := d.Intern(Attribute{Predicate: "y:hasCapacityOf", Lexical: "90000"})
	a1 := d.Intern(Attribute{Predicate: "y:wasFoundedIn", Lexical: "1994"})
	if a0 == a1 {
		t.Fatal("distinct attributes share id")
	}
	if again := d.Intern(Attribute{Predicate: "y:hasCapacityOf", Lexical: "90000"}); again != a0 {
		t.Errorf("re-Intern = %d, want %d", again, a0)
	}
	if got := d.Value(a1); got.Predicate != "y:wasFoundedIn" || got.Lexical != "1994" {
		t.Errorf("Value = %v", got)
	}
	if _, ok := d.Lookup(Attribute{Predicate: "y:hasName", Lexical: "MCA_Band"}); ok {
		t.Error("Lookup of absent attribute succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestAttrDictValuePanics(t *testing.T) {
	var d AttrDict
	defer func() {
		if recover() == nil {
			t.Error("Value on empty dict did not panic")
		}
	}()
	d.Value(0)
}

func TestAttributeString(t *testing.T) {
	a := Attribute{Predicate: "y:hasName", Lexical: "MCA_Band"}
	if got := a.String(); got != `<y:hasName, "MCA_Band">` {
		t.Errorf("String = %q", got)
	}
}

func TestDictionariesRoundTrip(t *testing.T) {
	var w Dictionaries
	v := w.InternVertex("http://x/London")
	e := w.InternEdgeType("http://y/isPartOf")
	a := w.InternAttr("http://y/hasCapacityOf", rdf.NewLiteral("90000"))
	d := w.Snapshot()

	if got := d.VertexIRI(v); got != "http://x/London" {
		t.Errorf("VertexIRI = %q", got)
	}
	if got := d.EdgeTypeIRI(e); got != "http://y/isPartOf" {
		t.Errorf("EdgeTypeIRI = %q", got)
	}
	if got := d.Attr(a); got.Lexical != "90000" {
		t.Errorf("Attr = %v", got)
	}

	if id, ok := d.LookupVertex("http://x/London"); !ok || id != v {
		t.Errorf("LookupVertex = %d, %v", id, ok)
	}
	if _, ok := d.LookupVertex("http://x/Paris"); ok {
		t.Error("LookupVertex(absent) succeeded")
	}
	if id, ok := d.LookupEdgeType("http://y/isPartOf"); !ok || id != e {
		t.Errorf("LookupEdgeType = %d, %v", id, ok)
	}
	if _, ok := d.LookupEdgeType("http://y/nope"); ok {
		t.Error("LookupEdgeType(absent) succeeded")
	}
	if id, ok := d.LookupAttr("http://y/hasCapacityOf", rdf.NewLiteral("90000")); !ok || id != a {
		t.Errorf("LookupAttr = %d, %v", id, ok)
	}
	if _, ok := d.LookupAttr("http://y/hasCapacityOf", rdf.NewLiteral("1")); ok {
		t.Error("LookupAttr(absent) succeeded")
	}
}

// TestInternRoundTripProperty: Value(Intern(s)) == s for arbitrary strings,
// and Intern is injective on distinct strings.
func TestInternRoundTripProperty(t *testing.T) {
	var d StringDict
	f := func(s string) bool {
		return d.Value(d.Intern(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInternInjectiveProperty(t *testing.T) {
	var d StringDict
	f := func(a, b string) bool {
		ia, ib := d.Intern(a), d.Intern(b)
		return (a == b) == (ia == ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestInternCopiesKeys: an interned value never aliases the caller's
// string, so a dictionary does not pin the line or buffer a key was cut
// from. Attributes of one predicate share a single predicate copy.
func TestInternCopiesKeys(t *testing.T) {
	line := "<http://x/a> <http://y/p> \"v1\" , \"v2\"@en ."
	cut := func(s string) string { i := strings.Index(line, s); return line[i : i+len(s)] }
	within := func(s string) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(line)))
		return len(s) > 0 && p >= lo && p < lo+uintptr(len(line))
	}

	var sd StringDict
	if v := sd.Value(sd.Intern(cut("http://x/a"))); within(v) {
		t.Errorf("StringDict value %q aliases the caller's string", v)
	}
	var ad AttrDict
	a1 := ad.Value(ad.Intern(Attribute{Predicate: cut("http://y/p"), Lexical: cut("v1")}))
	a2 := ad.Value(ad.Intern(Attribute{Predicate: cut("http://y/p"), Lexical: cut("v2"), Lang: cut("en")}))
	for _, s := range []string{a1.Predicate, a1.Lexical, a2.Predicate, a2.Lexical, a2.Lang} {
		if within(s) {
			t.Errorf("AttrDict field %q aliases the caller's string", s)
		}
	}
	if unsafe.StringData(a1.Predicate) != unsafe.StringData(a2.Predicate) {
		t.Error("attributes of one predicate hold separate predicate copies")
	}
}

// TestReserve: a reserved dictionary interns like a fresh one.
func TestReserve(t *testing.T) {
	var sd StringDict
	sd.Reserve(3)
	var ad AttrDict
	ad.Reserve(2)
	for i, s := range []string{"a", "b", "a"} {
		if got, want := sd.Intern(s), uint32(i%2); got != want {
			t.Errorf("Intern(%q) = %d, want %d", s, got, want)
		}
		if got, want := ad.Intern(Attribute{Predicate: "p", Lexical: s}), AttrID(i%2); got != want {
			t.Errorf("attribute Intern(%q) = %d, want %d", s, got, want)
		}
	}
	if got := ad.PredicateAttrs("p"); len(got) != 2 {
		t.Errorf("PredicateAttrs = %v", got)
	}
}

// propertyStrings returns n seeded strings that stress the arena and the
// table: empty strings, repeats, long shared prefixes and strings longer
// than an arena chunk.
func propertyStrings(rng *rand.Rand, n int) []string {
	prefix := "http://www.Department3.University7.edu/" + strings.Repeat("x", 200)
	out := make([]string, n)
	for i := range out {
		switch r := rng.Intn(20); {
		case r == 0:
			out[i] = ""
		case r == 1:
			out[i] = strings.Repeat(string(rune('a'+rng.Intn(26))), chunkSize+rng.Intn(3*chunkSize))
		case r < 8:
			out[i] = prefix + strconv.Itoa(rng.Intn(n))
		case r < 12 && i > 0:
			out[i] = out[rng.Intn(i)]
		default:
			out[i] = strconv.Itoa(rng.Intn(4 * n))
		}
	}
	return out
}

// TestStringDictMatchesMap interns seeded strings into a StringDict and a
// map reference and requires the same ids, values and lookups.
func TestStringDictMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		strs := propertyStrings(rng, 3000)
		var d StringDict
		if seed%2 == 0 {
			d.Reserve(len(strs) / 2)
			d.ReserveBytes(1000)
		}
		ref := map[string]uint32{}
		var vals []string
		for _, s := range strs {
			want, ok := ref[s]
			if !ok {
				want = uint32(len(vals))
				ref[s] = want
				vals = append(vals, s)
			}
			if got := d.Intern(s); got != want {
				t.Fatalf("seed %d: Intern(%.40q) = %d, want %d", seed, s, got, want)
			}
		}
		if d.Len() != len(vals) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, d.Len(), len(vals))
		}
		for id, s := range vals {
			if got := d.Value(uint32(id)); got != s {
				t.Fatalf("seed %d: Value(%d) = %.40q, want %.40q", seed, id, got, s)
			}
			if got, ok := d.Lookup(s); !ok || got != uint32(id) {
				t.Fatalf("seed %d: Lookup(%.40q) = %d, %v, want %d", seed, s, got, ok, id)
			}
		}
		for i := 0; i < 1000; i++ {
			s := "absent" + strconv.Itoa(rng.Int())
			if _, ok := d.Lookup(s); ok != has(ref, s) {
				t.Fatalf("seed %d: Lookup(%q) = %v", seed, s, ok)
			}
		}
	}
}

func has[K comparable, V any](m map[K]V, k K) bool {
	_, ok := m[k]
	return ok
}

// propertyAttrs returns seeded attributes in which typed, language-tagged
// and plain literals share lexical forms and predicates.
func propertyAttrs(rng *rand.Rand, n int) []Attribute {
	lexes := propertyStrings(rng, n/4)
	out := make([]Attribute, n)
	for i := range out {
		a := Attribute{
			Predicate: "http://p/" + strconv.Itoa(rng.Intn(7)),
			Lexical:   lexes[rng.Intn(len(lexes))],
		}
		switch rng.Intn(4) {
		case 0:
			a.Datatype = "http://www.w3.org/2001/XMLSchema#integer"
		case 1:
			a.Datatype = "http://www.w3.org/2001/XMLSchema#date"
		case 2:
			a.Lang = []string{"en", "fr"}[rng.Intn(2)]
		}
		out[i] = a
	}
	return out
}

// TestAttrDictMatchesMap interns seeded attributes into an AttrDict, one
// by one and through InternAll, and checks both against a map reference:
// the same ids and values, distinct ids for equal lexical forms that
// differ in datatype or language, and ascending posting lists equal to
// the reference's.
func TestAttrDictMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		attrs := propertyAttrs(rng, 4000)
		ref := map[Attribute]AttrID{}
		var vals []Attribute
		byPred := map[string][]AttrID{}
		for _, a := range attrs {
			if _, ok := ref[a]; !ok {
				ref[a] = AttrID(len(vals))
				byPred[a.Predicate] = append(byPred[a.Predicate], AttrID(len(vals)))
				vals = append(vals, a)
			}
		}
		var one, all AttrDict
		for _, a := range attrs {
			if got, want := one.Intern(a), ref[a]; got != want {
				t.Fatalf("seed %d: Intern(%v) = %d, want %d", seed, a, got, want)
			}
		}
		all.Reserve(len(vals))
		if !all.InternAll(slices.Values(vals)) {
			t.Fatalf("seed %d: InternAll reported a duplicate among distinct attributes", seed)
		}
		for name, d := range map[string]*AttrDict{"Intern": &one, "InternAll": &all} {
			if d.Len() != len(vals) {
				t.Fatalf("seed %d %s: Len = %d, want %d", seed, name, d.Len(), len(vals))
			}
			for id, a := range vals {
				if got := d.Value(AttrID(id)); got != a {
					t.Fatalf("seed %d %s: Value(%d) = %v, want %v", seed, name, id, got, a)
				}
				if got, ok := d.Lookup(a); !ok || got != AttrID(id) {
					t.Fatalf("seed %d %s: Lookup(%v) = %d, %v, want %d", seed, name, a, got, ok, id)
				}
				b := a
				b.Lang, b.Datatype = "de", ""
				if got, ok := d.Lookup(b); ok != has(ref, b) {
					t.Fatalf("seed %d %s: Lookup(%v) = %d, %v", seed, name, b, got, ok)
				}
			}
			for p := 0; p < 8; p++ {
				pred := "http://p/" + strconv.Itoa(p)
				got := d.PredicateAttrs(pred)
				if !slices.Equal(got, byPred[pred]) || !slices.IsSorted(got) {
					t.Fatalf("seed %d %s: PredicateAttrs(%s) = %v, want %v", seed, name, pred, got, byPred[pred])
				}
			}
			if got := d.PredicateAttrs("http://www.w3.org/2001/XMLSchema#integer"); got != nil {
				t.Fatalf("seed %d %s: a datatype has posting list %v", seed, name, got)
			}
		}
		// Interning after InternAll extends one list without disturbing
		// the others, which share its array.
		a := Attribute{Predicate: "http://p/0", Lexical: "after"}
		id := all.Intern(a)
		if got := all.PredicateAttrs("http://p/0"); got[len(got)-1] != id || !slices.Equal(got[:len(got)-1], byPred["http://p/0"]) {
			t.Fatalf("seed %d: PredicateAttrs after Intern = %v", seed, got)
		}
		if got := all.PredicateAttrs("http://p/1"); !slices.Equal(got, byPred["http://p/1"]) {
			t.Fatalf("seed %d: neighbouring list changed to %v", seed, got)
		}
	}
}

// TestInternAllStopsAtDuplicate: InternAll reports false, and interns
// nothing after the first attribute that is already present.
func TestInternAllStopsAtDuplicate(t *testing.T) {
	a, b := Attribute{Predicate: "p", Lexical: "1"}, Attribute{Predicate: "p", Lexical: "2"}
	var d AttrDict
	if d.InternAll(slices.Values([]Attribute{a, a, b})) {
		t.Error("InternAll accepted a duplicate")
	}
	if d.Len() != 1 || !slices.Equal(d.PredicateAttrs("p"), []AttrID{0}) {
		t.Errorf("after the duplicate: Len = %d, PredicateAttrs = %v", d.Len(), d.PredicateAttrs("p"))
	}
}

// TestLongString: a string too long for the packed length field keeps its
// length in the arena and round-trips.
func TestLongString(t *testing.T) {
	var d StringDict
	long := strings.Repeat("L", longLen+1)
	d.Intern("before")
	id := d.Intern(long)
	d.Intern("after")
	if got := d.Value(id); got != long {
		t.Errorf("Value of a %d-byte string has %d bytes", len(long), len(got))
	}
	if got, ok := d.Lookup(long); !ok || got != id {
		t.Errorf("Lookup = %d, %v", got, ok)
	}
	if got := d.Value(2); got != "after" {
		t.Errorf("Value(2) = %q", got)
	}
}

// TestValuesStable: the strings Value returns are views into the arena.
// Those of the first 100 strings, and of every 1000th after them, must
// stay byte-identical through 100 000 further interns.
func TestValuesStable(t *testing.T) {
	name := func(i int) string { return "http://x/" + strconv.Itoa(i) + strings.Repeat("/y", i%13) }
	attr := func(i int) Attribute { return Attribute{Predicate: name(i % 3), Lexical: name(i), Lang: "en"} }
	var sd StringDict
	var ad AttrDict
	vs, as := map[int]string{}, map[int]Attribute{}
	for i := 0; i < 100100; i++ {
		v, a := sd.Value(sd.Intern(name(i))), ad.Value(ad.Intern(attr(i)))
		if i < 100 || i%1000 == 0 {
			vs[i], as[i] = v, a
		}
	}
	for i, v := range vs {
		if v != name(i) {
			t.Fatalf("string %d changed to %q", i, v)
		}
		if as[i] != attr(i) {
			t.Fatalf("attribute %d changed to %v", i, as[i])
		}
	}
}

// TestConcurrentReaders is the torture test of the one-writer,
// many-snapshots rule; run it under -race. A writer interns while
// readers use snapshots taken before and during the run: every id below
// a snapshot's length must resolve as it did when the snapshot was
// taken, and every key interned later must be absent from it. The run
// grows the tables, starts new arena chunks, interns a string longer
// than a chunk, introduces new predicate, datatype and language names,
// and appends to posting lists that InternAll built; it starts once from
// a built base and once from an empty one.
func TestConcurrentReaders(t *testing.T) {
	const total = 6000
	vertex := func(i int) string {
		if i == total/2 {
			return "http://x/" + strings.Repeat("z", 70000)
		}
		return "http://x/" + strconv.Itoa(i)
	}
	edgeType := func(i int) string { return "http://p/" + strconv.Itoa(i) }
	pred := func(i int) string { return "http://p/" + strconv.Itoa(i%(3+i/1000)) }
	attr := func(i int) Attribute {
		a := Attribute{Predicate: pred(i), Lexical: strconv.Itoa(i)}
		switch i % 3 {
		case 1:
			a.Datatype = "http://dt/" + strconv.Itoa(i/1000)
		case 2:
			a.Lang = "l" + strconv.Itoa(i/1000)
		}
		return a
	}
	// check reads the snapshot s; it reports the first difference from
	// what the snapshot held when it was taken.
	check := func(s *Snapshot, rng *rand.Rand) error {
		n := s.Vertices.Len()
		if s.EdgeTypes.Len() != n || s.Attrs.Len() != n {
			return fmt.Errorf("lengths %d, %d, %d differ", n, s.EdgeTypes.Len(), s.Attrs.Len())
		}
		for k := 0; k < 24; k++ {
			i := rng.Intn(total)
			if k == 0 {
				i = total / 2
			}
			v, okV := s.LookupVertex(vertex(i))
			e, okE := s.LookupEdgeType(edgeType(i))
			a, okA := s.Attrs.Lookup(attr(i))
			if i >= n {
				if okV || okE || okA {
					return fmt.Errorf("key %d, interned after a snapshot of %d, is present in it", i, n)
				}
				continue
			}
			if !okV || int(v) != i || s.VertexIRI(v) != vertex(i) {
				return fmt.Errorf("vertex %d of %d: Lookup = %d, %v", i, n, v, okV)
			}
			if !okE || int(e) != i || s.EdgeTypeIRI(e) != edgeType(i) {
				return fmt.Errorf("edge type %d of %d: Lookup = %d, %v", i, n, e, okE)
			}
			if !okA || int(a) != i || s.Attr(a) != attr(i) {
				return fmt.Errorf("attribute %d of %d: Lookup = %d, %v", i, n, a, okA)
			}
		}
		p := "http://p/" + strconv.Itoa(rng.Intn(9))
		var want []AttrID
		for i := 0; i < n; i++ {
			if pred(i) == p {
				want = append(want, AttrID(i))
			}
		}
		if got := s.PredicateAttrs(p); !slices.Equal(got, want) {
			return fmt.Errorf("PredicateAttrs(%s) of %d attributes: %d ids, want %d", p, n, len(got), len(want))
		}
		return nil
	}
	for _, base := range []int{0, 2000} {
		t.Run("base"+strconv.Itoa(base), func(t *testing.T) {
			var d Dictionaries
			for i := 0; i < base; i++ {
				d.InternVertex(vertex(i))
				d.InternEdgeType(edgeType(i))
			}
			d.Attrs.InternAll(func(yield func(Attribute) bool) {
				for i := 0; i < base && yield(attr(i)); i++ {
				}
			})
			before := d.Snapshot()
			var cur atomic.Pointer[Snapshot]
			cur.Store(&before)
			var done atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for last := false; !last; {
						last = done.Load()
						for _, s := range []*Snapshot{&before, cur.Load()} {
							if err := check(s, rng); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			for i := base; i < total; i++ {
				d.InternVertex(vertex(i))
				d.InternEdgeType(edgeType(i))
				d.InternAttr(pred(i), attr(i).Literal())
				if i%41 == 0 {
					s := d.Snapshot()
					cur.Store(&s)
					runtime.Gosched()
				}
			}
			s := d.Snapshot()
			cur.Store(&s)
			done.Store(true)
			wg.Wait()
		})
	}
}

// TestHeapPerString: interning N strings of length L into a reserved
// dictionary raises the live heap by at most N·(L+16) bytes, which one
// allocation per string (a cloned key plus its header) cannot meet, and
// Value and Lookup do not allocate.
func TestHeapPerString(t *testing.T) {
	const n, l = 100000, 40
	strs := make([]string, n)
	for i := range strs {
		s := fmt.Sprintf("http://example.org/resource/%d", i)
		strs[i] = s + strings.Repeat("#", l-len(s))
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	d := new(StringDict)
	d.Reserve(n)
	for _, s := range strs {
		d.Intern(s)
	}
	grew := int64(heap()) - int64(before)
	t.Logf("%.1f bytes per %d-byte string", float64(grew)/n, l)
	if limit := int64(n * (l + 16)); grew > limit {
		t.Errorf("interning %d strings of %d bytes grew the heap by %d bytes (%.1f per string), want at most %d",
			n, l, grew, float64(grew)/n, limit)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		id, _ := d.Lookup(strs[n/2])
		_ = d.Value(id)
	}); allocs != 0 {
		t.Errorf("Lookup and Value made %.0f allocations", allocs)
	}
	runtime.KeepAlive(d)
}
