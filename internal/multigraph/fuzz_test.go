package multigraph

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder; it
// must reject them cleanly (error, never panic) or produce a graph that
// survives a re-encode unchanged. Each input is also decoded with its
// trailer CRC recomputed, so mutations reach the structural checks
// behind the checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with valid snapshots and some prefixes of one.
	valid := encoded(f, mustFigure1(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("AMBG\x01"))
	f.Add([]byte{})
	typed, err := FromTriples([]rdf.Triple{
		tripleOf("a", "p", "b"),
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://y/age"),
			O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{S: rdf.NewIRI("http://x/b"), P: rdf.NewIRI("http://y/name"), O: rdf.NewLangLiteral("bee", "en")},
		{S: rdf.NewIRI("http://x/b"), P: rdf.NewIRI("http://y/name"), O: rdf.NewLiteral("bee")},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encoded(f, typed))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		if len(data) >= 4 {
			roundTrip(t, reseal(bytes.Clone(data)))
		}
	})
}

// roundTrip decodes data and, when it is accepted, checks that the graph
// re-encodes to a snapshot that decodes to the same graph and is a fixed
// point of Encode. (Data itself may differ from the re-encode: a varint
// can be written in more than one way.)
func roundTrip(t *testing.T, data []byte) {
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		return
	}
	out := encoded(t, got)
	again, err := Decode(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("decode of re-encoded snapshot failed: %v", err)
	}
	graphsEqual(t, got, again)
	if !bytes.Equal(encoded(t, again), out) {
		t.Fatal("re-encoding a decoded snapshot is not a fixed point")
	}
}

func encoded(tb testing.TB, g *Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func mustFigure1(f *testing.F) *Graph {
	f.Helper()
	triples := []struct{ s, p, o string }{
		{"a", "p", "b"}, {"b", "q", "a"}, {"c", "p", "a"},
	}
	var b Builder
	for _, tr := range triples {
		if err := b.Add(tripleOf(tr.s, tr.p, tr.o)); err != nil {
			f.Fatal(err)
		}
	}
	return b.Build()
}

// tripleOf builds a simple IRI triple for fuzz seeding.
func tripleOf(s, p, o string) rdf.Triple {
	return rdf.Triple{
		S: rdf.NewIRI("http://x/" + s),
		P: rdf.NewIRI("http://y/" + p),
		O: rdf.NewIRI("http://x/" + o),
	}
}

// attrsAgree checks the attribute side against a scan of the vertex side:
// AttrVertices(a) lists, ascending, exactly the vertices whose Attrs hold
// a.
func attrsAgree(t *testing.T, g *Graph) {
	t.Helper()
	for a := range g.NumAttrs() + 1 {
		var want []dict.VertexID
		for v := range g.NumVertices() {
			if slices.Contains(g.Attrs(dict.VertexID(v)), dict.AttrID(a)) {
				want = append(want, dict.VertexID(v))
			}
		}
		if got := g.AttrVertices(dict.AttrID(a)); !slices.Equal(got, want) {
			t.Fatalf("AttrVertices(%d) = %v, the vertices carrying it %v", a, got, want)
		}
	}
}

// FuzzBuildGraph builds graphs from small triple sets drawn from the input,
// three bytes a triple: subject, predicate and object ids over eight
// vertices and four predicates, an object byte from 0xf0 up being one of
// sixteen literals. The graph must agree with a naive reference, the set
// of triples it was built from: every run lists exactly the labelled
// edges of its vertex and type, HasEdgeTypes and the regrouped multi-edges
// answer from the same set, and the pair count is the set's. Each
// attribute's vertices are those whose attributes contain it. Its snapshot
// must decode to identical arrays that re-encode to the same bytes, and
// the decoded attribute side must pass the same check.
func FuzzBuildGraph(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 1, 0, 0, 2, 2, 2, 3, 3, 0xf3})
	f.Add([]byte{5, 0, 5, 5, 1, 5, 5, 0, 5, 6, 3, 5, 7, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		type label struct {
			s, o int
			p    byte
		}
		ref := map[label]bool{}
		var ts []rdf.Triple
		v := func(i int) rdf.Term { return rdf.NewIRI("http://x/v" + itoa(i)) }
		for i := 0; i+3 <= len(data) && i < 3*64; i += 3 {
			s, p, o := int(data[i]%8), data[i+1]%4, data[i+2]
			tr := rdf.Triple{S: v(s), P: rdf.NewIRI("http://y/p" + itoa(int(p)))}
			if o >= 0xf0 {
				tr.O = rdf.NewLiteral("l" + itoa(int(o-0xf0)))
			} else {
				tr.O = v(int(o % 8))
				ref[label{s, int(o % 8), p}] = true
			}
			ts = append(ts, tr)
		}
		g, err := FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		// vid and pid map reference indexes to the graph's ids (absent: -1).
		vid := func(i int) int {
			id, ok := g.Terms().LookupVertex("http://x/v" + itoa(i))
			if !ok {
				return -1
			}
			return int(id)
		}
		pid := func(p byte) int {
			id, ok := g.Terms().LookupEdgeType("http://y/p" + itoa(int(p)))
			if !ok {
				return -1
			}
			return int(id)
		}
		inRef := func(s, o int, p dict.EdgeType) bool {
			for l := range ref {
				if vid(l.s) == s && vid(l.o) == o && pid(l.p) == int(p) {
					return true
				}
			}
			return false
		}
		labels, pairs := 0, map[[2]int]bool{}
		for l := range ref {
			pairs[[2]int{l.s, l.o}] = true
		}
		for s := range g.NumVertices() {
			var m MultiEdges
			m.Regroup(g.Out(dict.VertexID(s)))
			for i := range m.Len() {
				for _, p := range m.Types(i) {
					if !inRef(s, int(m.V(i)), p) || !g.HasEdgeTypes(dict.VertexID(s), m.V(i), []dict.EdgeType{p}) {
						t.Fatalf("edge %d→%d of type %d is not a source triple", s, m.V(i), p)
					}
					if !slices.Contains(g.In(m.V(i)).List(p), dict.VertexID(s)) {
						t.Fatalf("edge %d→%d of type %d missing from the in side", s, m.V(i), p)
					}
					labels++
				}
			}
			for o := range g.NumVertices() {
				for p := range g.NumEdgeTypes() {
					if want := inRef(s, o, dict.EdgeType(p)); g.HasEdgeTypes(dict.VertexID(s), dict.VertexID(o), []dict.EdgeType{dict.EdgeType(p)}) != want {
						t.Fatalf("HasEdgeTypes(%d, %d, %d) != %v", s, o, p, want)
					}
				}
			}
		}
		if labels != len(ref) || g.NumEdges() != len(pairs) {
			t.Fatalf("graph holds %d labels on %d pairs, the triples %d on %d", labels, g.NumEdges(), len(ref), len(pairs))
		}
		attrsAgree(t, g)
		snap := encoded(t, g)
		dec, err := Decode(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		attrsAgree(t, dec)
		graphsEqual(t, g, dec)
		if !bytes.Equal(encoded(t, dec), snap) {
			t.Fatal("Encode→Decode→Encode is not a fixed point")
		}
	})
}
