package multigraph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

func encodeDecode(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		a.NumTriples() != b.NumTriples() || a.NumEdgeTypes() != b.NumEdgeTypes() ||
		a.NumAttrs() != b.NumAttrs() {
		t.Fatalf("stats differ: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)",
			a.NumVertices(), a.NumEdges(), a.NumTriples(), a.NumEdgeTypes(), a.NumAttrs(),
			b.NumVertices(), b.NumEdges(), b.NumTriples(), b.NumEdgeTypes(), b.NumAttrs())
	}
	for v := 0; v < a.NumVertices(); v++ {
		vid := dict.VertexID(v)
		if a.Terms().VertexIRI(vid) != b.Terms().VertexIRI(vid) {
			t.Fatalf("vertex %d IRI differs", v)
		}
	}
	for _, sides := range [][2]*side{{&a.out, &b.out}, {&a.in, &b.in}} {
		x, y := sides[0], sides[1]
		if !slices.Equal(x.start, y.start) || !slices.Equal(x.types, y.types) ||
			!slices.Equal(x.off, y.off) || !slices.Equal(x.ids, y.ids) {
			t.Fatal("adjacency arrays differ")
		}
	}
	if !slices.Equal(a.attrOff, b.attrOff) || !slices.Equal(a.attrIDs, b.attrIDs) ||
		!slices.Equal(a.holderOff, b.holderOff) || !slices.Equal(a.holders, b.holders) {
		t.Fatal("attribute arrays differ")
	}
	for i := 0; i < a.NumEdgeTypes(); i++ {
		if a.Terms().EdgeTypeIRI(dict.EdgeType(i)) != b.Terms().EdgeTypeIRI(dict.EdgeType(i)) {
			t.Fatalf("edge type %d differs", i)
		}
	}
	for i := 0; i < a.NumAttrs(); i++ {
		if a.Terms().Attr(dict.AttrID(i)) != b.Terms().Attr(dict.AttrID(i)) {
			t.Fatalf("attribute %d differs", i)
		}
	}
}

func TestSnapshotRoundTripFigure1(t *testing.T) {
	g := buildFigure1(t)
	graphsEqual(t, g, encodeDecode(t, g))
}

func TestSnapshotRoundTripEmpty(t *testing.T) {
	g, err := FromTriples(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := encodeDecode(t, g)
	if got.NumVertices() != 0 || got.NumTriples() != 0 {
		t.Errorf("empty round trip: %d vertices", got.NumVertices())
	}
}

func TestSnapshotRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 30, 8, 200)
		graphsEqual(t, g, encodeDecode(t, g))
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	raw := figure1Snapshot(t)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[0] = 'X'
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, raw...)
		bad[4] = 99
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Error("bad version accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix is an error, never a panic or a graph.
		for cut := 0; cut < len(raw); cut++ {
			if _, err := Decode(bytes.NewReader(raw[:cut])); err == nil {
				t.Errorf("truncation at %d of %d accepted", cut, len(raw))
			}
		}
	})
	t.Run("bit flip fails checksum", func(t *testing.T) {
		// A flipped byte anywhere, trailer included, is an error.
		for off := range raw {
			bad := bytes.Clone(raw)
			bad[off] ^= 0x5a
			if _, err := Decode(bytes.NewReader(bad)); err == nil {
				t.Errorf("byte flip at %d of %d accepted", off, len(raw))
			}
		}
	})
	t.Run("empty input", func(t *testing.T) {
		if _, err := Decode(bytes.NewReader(nil)); err == nil {
			t.Error("empty input accepted")
		}
	})
}

func TestSnapshotDeterministic(t *testing.T) {
	g := buildFigure1(t)
	var a, b bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshot encoding not deterministic")
	}
}

// reseal rewrites a snapshot's trailer CRC to match its body, so a test
// reaches the decoder's structural checks instead of the checksum.
func reseal(raw []byte) []byte {
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body))
	return raw
}

// figure1Snapshot encodes the Figure-1 graph.
func figure1Snapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := buildFigure1(t).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeVersion1Snapshot: a version-1 snapshot (untyped, folded
// literals) is refused with an error naming the version and telling the
// user to rebuild it from N-Triples, even when its checksum is intact.
func TestDecodeVersion1Snapshot(t *testing.T) {
	raw := figure1Snapshot(t)
	raw[len(snapshotMagic)] = 1
	_, err := Decode(bytes.NewReader(reseal(raw)))
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1") || !strings.Contains(err.Error(), "N-Triples") {
		t.Errorf("Decode(v1) err = %v, want a refusal naming version 1 and N-Triples", err)
	}
}

// TestDecodeRejectsTrailingBytes: a snapshot file holds exactly one
// snapshot. Bytes after the trailer fail the checksum, and bytes after
// the last section fail even under a checksum that covers them.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	raw := figure1Snapshot(t)
	if _, err := Decode(bytes.NewReader(append(bytes.Clone(raw), 0))); err == nil {
		t.Error("byte after the trailer accepted")
	}
	padded := append(bytes.Clone(raw[:len(raw)-4]), 0, 0, 0, 0, 0)
	_, err := Decode(bytes.NewReader(reseal(padded)))
	if err == nil || !strings.Contains(err.Error(), "1 bytes after") {
		t.Errorf("byte after the last section: err = %v", err)
	}
}

// TestDecodeRejectsStructuralDamage: under a valid checksum, every
// structural check still holds and its error names the damage. The
// snapshots are built by hand: two vertices "a" and "b", edge types "p"
// and "q", no attributes or the two attributes <r,"x"> and <r,"y">, then
// the given adjacency and attribute sections.
func TestDecodeRejectsStructuralDamage(t *testing.T) {
	const (
		noAttrs  = "\x00\x01"
		twoAttrs = "\x02\x01r\x01x\x00\x00\x01r\x01y\x00\x00\x02"
	)
	build := func(attrs string, sections ...uint64) []byte {
		raw := []byte(snapshotMagic + "\x02\x02\x01a\x01b\x02\x01p\x01q" + attrs)
		for _, v := range sections {
			raw = binary.AppendUvarint(raw, v)
		}
		return reseal(append(raw, 0, 0, 0, 0))
	}
	if g, err := Decode(bytes.NewReader(build(noAttrs, 1, 1, 2, 0, 1, 0, 0, 0))); err != nil || g.NumEdges() != 1 {
		t.Fatalf("valid hand-built snapshot: %v", err)
	}
	g, err := Decode(bytes.NewReader(build(twoAttrs, 0, 0, 0, 2, 0, 1)))
	if err != nil || !slices.Equal(g.Attrs(1), []dict.AttrID{0, 1}) {
		t.Fatalf("valid hand-built snapshot with attributes: %v", err)
	}
	for _, c := range []struct {
		name, attrs string
		sections    []uint64
		want        string
	}{
		{"edge types not ascending", noAttrs, []uint64{1, 1, 2, 1, 0, 0, 0, 0}, "edge-type ids not ascending"},
		{"edge type out of range", noAttrs, []uint64{1, 1, 1, 2, 0, 0, 0}, "edge-type ids not ascending below 2"},
		{"target out of range", noAttrs, []uint64{1, 2, 1, 0, 0, 0, 0}, "edge target 2 out of range"},
		{"targets not ascending", noAttrs, []uint64{2, 1, 1, 0, 0, 1, 0, 0, 0, 0}, "adjacency of 0 not sorted"},
		{"zero cardinality", noAttrs, []uint64{1, 1, 0, 0, 0, 0}, "bad multi-edge cardinality 0"},
		{"attribute out of range", noAttrs, []uint64{0, 0, 1, 0, 0}, "attribute ids not ascending below 0"},
		{"missing attributes", noAttrs, []uint64{0, 0, 0}, "bad varint"},
		// The last byte of the body is the bad id, so nothing is left over.
		{"last attribute out of range", twoAttrs, []uint64{0, 0, 0, 1, 2}, "attribute ids not ascending below 2"},
		{"last attribute repeated", twoAttrs, []uint64{0, 0, 0, 2, 0, 0}, "attribute ids not ascending below 2"},
	} {
		_, err := Decode(bytes.NewReader(build(c.attrs, c.sections...)))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to name %q", c.name, err, c.want)
		}
	}
}

// TestDecodeHugeCountsAllocateLittle: a header claiming 2⁴⁰ vertices or
// attributes under a valid checksum fails before it sizes anything.
func TestDecodeHugeCountsAllocateLittle(t *testing.T) {
	for _, c := range []struct {
		name   string
		counts []uint64 // vertex, edge-type, attribute counts as far as given
	}{
		{"vertices", []uint64{1 << 40}},
		{"attributes", []uint64{0, 0, 1 << 40}},
	} {
		raw := []byte(snapshotMagic + "\x02")
		for _, n := range c.counts {
			raw = binary.AppendUvarint(raw, n)
		}
		raw = reseal(append(raw, make([]byte, 4+4)...))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: count 2^40 accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: count 2^40 allocated %d bytes before failing", c.name, grew)
		}
	}
}

// decodeAllocs reports the mean allocation count of decoding raw.
func decodeAllocs(t *testing.T, raw []byte) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeAllocs bounds the allocations of decoding a fixed snapshot:
// the graph and the read buffer; per dictionary its arena, locations and
// table; Ma's records, name table and posting lists; and the adjacency and
// attribute arrays. None of these is one allocation per string or per
// list.
func TestDecodeAllocs(t *testing.T) {
	const bound = 40
	if allocs := decodeAllocs(t, figure1Snapshot(t)); allocs > bound {
		t.Errorf("Decode made %.0f allocations, want at most %d", allocs, bound)
	}
}

// TestDecodeAllocsFlat: the allocations of Decode do not grow with the
// graph. For two seeded graphs, one ten times the other, with the same
// predicates, datatypes and language tags, Decode's allocations differ by
// no more than one.
func TestDecodeAllocsFlat(t *testing.T) {
	graphAllocs := func(nV, n int) float64 {
		g, err := FromTriples(seededTriples(rand.New(rand.NewSource(int64(n))), nV, n))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return decodeAllocs(t, buf.Bytes())
	}
	small, large := graphAllocs(200, 2000), graphAllocs(2000, 20000)
	t.Logf("Decode allocations: %.0f and %.0f", small, large)
	if large-small > 1 || small-large > 1 {
		t.Errorf("Decode made %.0f allocations for the larger graph and %.0f for the smaller", large, small)
	}
}

// TestDecodeUnknownVersionFails: a future version must fail with a clear
// versioned error, not a checksum mismatch or a garbled graph.
func TestDecodeUnknownVersionFails(t *testing.T) {
	g, err := FromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://y/p"), O: rdf.NewIRI("http://x/b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(snapshotMagic)] = 99
	_, err = Decode(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 99") {
		t.Errorf("Decode(v99) err = %v", err)
	}
}

// TestTypedAttributeSnapshotRoundTrip: datatypes and language tags
// survive Encode→Decode.
func TestTypedAttributeSnapshotRoundTrip(t *testing.T) {
	g, err := FromTriples([]rdf.Triple{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://y/age"),
			O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://y/greet"),
			O: rdf.NewLangLiteral("hi", "en")},
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://y/name"), O: rdf.NewLiteral("plain")},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := encodeDecode(t, g)
	for i := 0; i < g.Dicts.Attrs.Len(); i++ {
		want := g.Terms().Attr(dict.AttrID(i))
		if have := got.Terms().Attr(dict.AttrID(i)); have != want {
			t.Errorf("attr %d = %+v, want %+v", i, have, want)
		}
	}
}
