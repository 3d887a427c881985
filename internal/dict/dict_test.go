package dict

import (
	"repro/internal/rdf"

	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	var d Dictionaries
	v := d.InternVertex("http://x/London")
	e := d.InternEdgeType("http://y/isPartOf")
	a := d.InternAttr("http://y/hasCapacityOf", rdf.NewLiteral("90000"))

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
