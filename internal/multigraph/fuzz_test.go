package multigraph

import (
	"bytes"
	"testing"

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
