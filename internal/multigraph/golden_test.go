package multigraph

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dict"
	"repro/internal/rdf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.snap from the golden corpus")

const goldenPath = "testdata/golden.snap"

// goldenCorpus is the fixed corpus the golden snapshot is built from: the
// Figure 1 tripleset followed by a seeded graph that has multi-edges,
// self-loops, duplicate triples, blank nodes and plain, typed and
// language-tagged literals.
func goldenCorpus(t testing.TB) []rdf.Triple {
	t.Helper()
	ts, err := rdf.ParseString(figure1)
	if err != nil {
		t.Fatal(err)
	}
	return append(ts, seededTriples(rand.New(rand.NewSource(35)), 40, 300)...)
}

// seededTriples draws n triples over nV resources and six predicates. A
// tenth of the triples repeat an earlier one; a quarter have a literal
// object, a third of those typed and a third language-tagged.
func seededTriples(rng *rand.Rand, nV, n int) []rdf.Triple {
	res := func(i int) rdf.Term {
		if i%7 == 3 {
			return rdf.NewBlank("b" + itoa(i))
		}
		return rdf.NewIRI("http://g/v" + itoa(i))
	}
	var ts []rdf.Triple
	for len(ts) < n {
		if len(ts) > 0 && rng.Intn(10) == 0 {
			ts = append(ts, ts[rng.Intn(len(ts))])
			continue
		}
		s := res(rng.Intn(nV))
		p := rdf.NewIRI("http://g/p" + itoa(rng.Intn(6)))
		var o rdf.Term
		switch r := rng.Intn(12); {
		case r == 0:
			o = rdf.NewTypedLiteral(itoa(rng.Intn(50)), "http://www.w3.org/2001/XMLSchema#integer")
		case r == 1:
			o = rdf.NewLangLiteral("w"+itoa(rng.Intn(20)), []string{"en", "fr"}[rng.Intn(2)])
		case r == 2:
			o = rdf.NewLiteral("w" + itoa(rng.Intn(20)))
		case r == 3:
			o = s // self-loop
		default:
			o = res(rng.Intn(nV))
		}
		ts = append(ts, rdf.Triple{S: s, P: p, O: o})
	}
	return ts
}

// TestGoldenSnapshot pins the snapshot format byte for byte: building the
// golden corpus and encoding it, and decoding the golden file and
// re-encoding it, must both reproduce testdata/golden.snap. Run with
// -update to rewrite the file after a deliberate format change.
func TestGoldenSnapshot(t *testing.T) {
	g, err := FromTriples(goldenCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	loops, multi, typed, tagged := 0, 0, 0, 0
	var m MultiEdges
	for v := 0; v < g.NumVertices(); v++ {
		m.Regroup(g.Out(dict.VertexID(v)))
		for i := 0; i < m.Len(); i++ {
			if m.V(i) == dict.VertexID(v) {
				loops++
			}
			if len(m.Types(i)) > 1 {
				multi++
			}
		}
	}
	for i := 0; i < g.NumAttrs(); i++ {
		a := g.Terms().Attr(dict.AttrID(i))
		if a.Datatype != "" {
			typed++
		}
		if a.Lang != "" {
			tagged++
		}
	}
	if loops == 0 || multi == 0 || typed == 0 || tagged == 0 {
		t.Fatalf("corpus lacks a feature: %d self-loops, %d multi-edges, %d typed and %d tagged literals",
			loops, multi, typed, tagged)
	}
	t.Logf("%d triples, %d vertices, %d pairs: %d self-loops, %d multi-edges, %d typed and %d tagged literals",
		g.NumTriples(), g.NumVertices(), g.NumEdges(), loops, multi, typed, tagged)
	var built bytes.Buffer
	if err := g.Encode(&built); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), golden) {
		t.Errorf("Build→Encode: %d bytes differ from the %d-byte golden snapshot", built.Len(), len(golden))
	}
	dec, err := Decode(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := dec.Encode(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), golden) {
		t.Errorf("Decode→Encode: %d bytes differ from the %d-byte golden snapshot", re.Len(), len(golden))
	}
}
