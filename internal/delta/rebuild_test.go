package delta

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/otil"
	"repro/internal/rdf"
)

// referenceRebuild is the string round trip Rebuild replaces: a Builder
// fed the View's Triples, which re-validates and re-interns every term.
func referenceRebuild(tb testing.TB, v *View) *multigraph.Graph {
	tb.Helper()
	var b multigraph.Builder
	v.Triples(func(tr rdf.Triple) bool {
		if err := b.Add(tr); err != nil {
			tb.Fatalf("reference build: %v", err)
		}
		return true
	})
	return b.Build()
}

func encodeGraph(tb testing.TB, g *multigraph.Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// checkRebuild asserts that v.Rebuild() is the reference graph: the same
// counts and size, every id's dictionary value, the raw adjacency and
// attribute arrays, and the same snapshot bytes.
func checkRebuild(tb testing.TB, v *View) {
	tb.Helper()
	got, want := v.Rebuild(), referenceRebuild(tb, v)
	if got.NumVertices() != want.NumVertices() || got.NumEdgeTypes() != want.NumEdgeTypes() ||
		got.NumAttrs() != want.NumAttrs() || got.NumTriples() != want.NumTriples() ||
		got.NumEdges() != want.NumEdges() || got.Bytes() != want.Bytes() {
		tb.Fatalf("Rebuild counts (V %d, T %d, A %d, triples %d, edges %d, %d B), reference (%d, %d, %d, %d, %d, %d B)",
			got.NumVertices(), got.NumEdgeTypes(), got.NumAttrs(), got.NumTriples(), got.NumEdges(), got.Bytes(),
			want.NumVertices(), want.NumEdgeTypes(), want.NumAttrs(), want.NumTriples(), want.NumEdges(), want.Bytes())
	}
	gt, wt := got.Terms(), want.Terms()
	for i := range got.NumEdgeTypes() {
		if gt.EdgeTypeIRI(dict.EdgeType(i)) != wt.EdgeTypeIRI(dict.EdgeType(i)) {
			tb.Fatalf("edge type %d: %q, reference %q", i, gt.EdgeTypeIRI(dict.EdgeType(i)), wt.EdgeTypeIRI(dict.EdgeType(i)))
		}
	}
	for i := range got.NumAttrs() {
		if gt.Attr(dict.AttrID(i)) != wt.Attr(dict.AttrID(i)) {
			tb.Fatalf("attribute %d: %v, reference %v", i, gt.Attr(dict.AttrID(i)), wt.Attr(dict.AttrID(i)))
		}
	}
	for i := range got.NumVertices() {
		vid := dict.VertexID(i)
		if gt.VertexIRI(vid) != wt.VertexIRI(vid) {
			tb.Fatalf("vertex %d: %q, reference %q", i, gt.VertexIRI(vid), wt.VertexIRI(vid))
		}
		// A vertex's runs are views into its side's arrays: their types and
		// offsets here, the id arrays they index once below.
		for _, sides := range [][2]otil.Postings{{got.Out(vid), want.Out(vid)}, {got.In(vid), want.In(vid)}} {
			if g, w := sides[0], sides[1]; !slices.Equal(g.Types, w.Types) || !slices.Equal(g.Off, w.Off) {
				tb.Fatalf("vertex %d: runs %v at %v, reference %v at %v", i, g.Types, g.Off, w.Types, w.Off)
			}
		}
		if !slices.Equal(got.Attrs(vid), want.Attrs(vid)) {
			tb.Fatalf("vertex %d: attributes %v, reference %v", i, got.Attrs(vid), want.Attrs(vid))
		}
	}
	if got.NumVertices() > 0 && (!slices.Equal(got.Out(0).IDs, want.Out(0).IDs) || !slices.Equal(got.In(0).IDs, want.In(0).IDs)) {
		tb.Fatal("neighbour id arrays differ from the reference")
	}
	if !bytes.Equal(encodeGraph(tb, got), encodeGraph(tb, want)) {
		tb.Fatal("Rebuild encodes to other bytes than the reference")
	}
}

// FuzzRebuild draws a base and overlay batches from the input and checks
// Rebuild against the reference after every batch, and once more at the
// end on the View of the first batch, which the later ones have overtaken. The rebuilt
// graph's snapshot must decode to a graph that re-encodes to the same
// bytes.
//
// The first byte is the base size in triples; then three bytes a triple:
// subject, predicate and object, an object byte from 0xf0 up being a
// literal. Base triples range over eight vertices, four predicates and
// eight literals, batch triples over twelve, five and sixteen, so batches
// bring new terms. In a batch a subject byte from 0xc0 up deletes the
// triple rather than adds it, and a predicate byte of 0xff ends the batch.
func FuzzRebuild(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 1, 1, 0xf2, 2, 2, 3, 0, 0xff, 0, 0xc0, 0, 1, 9, 4, 0xf9, 0xc1, 1, 0xf2, 2, 0xff, 0, 0, 0, 1})
	f.Add([]byte{6, 0, 0, 1, 0, 1, 1, 0, 2, 1, 1, 0, 0xf0, 1, 1, 0xf1, 2, 3, 0, 0xc0, 0, 1, 0xc0, 1, 1, 8, 4, 9, 0xc1, 0, 0xf0, 0, 0xff, 0, 0, 0, 1, 1, 0, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nBase, data := int(data[0]%32), data[1:]
		// triple reads three bytes over nv vertices, np predicates and nl
		// literals.
		triple := func(b []byte, nv, np, nl byte) rdf.Triple {
			tr := rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://x/v%d", b[0]%nv)), P: rdf.NewIRI(fmt.Sprintf("http://y/p%d", b[1]%np))}
			if b[2] >= 0xf0 {
				tr.O = rdf.NewLiteral(fmt.Sprintf("l%d", (b[2]-0xf0)%nl))
			} else {
				tr.O = rdf.NewIRI(fmt.Sprintf("http://x/v%d", b[2]%nv))
			}
			return tr
		}
		var base []rdf.Triple
		for ; nBase > 0 && len(data) >= 3; nBase, data = nBase-1, data[3:] {
			base = append(base, triple(data, 8, 4, 8))
		}
		g, err := multigraph.FromTriples(base)
		if err != nil {
			t.Fatal(err)
		}
		v, first := NewView(g, index.Build(g)), (*View)(nil)
		var adds, dels []rdf.Triple
		apply := func() {
			if v, err = v.Apply(adds, dels); err != nil {
				t.Fatal(err)
			}
			adds, dels = nil, nil
			if first == nil {
				first = v
			}
			checkRebuild(t, v)
		}
		for batches := 0; len(data) >= 3 && batches < 16; data = data[3:] {
			switch {
			case data[1] == 0xff:
				apply()
				batches++
			case data[0] >= 0xc0:
				dels = append(dels, triple(data, 12, 5, 16))
			default:
				adds = append(adds, triple(data, 12, 5, 16))
			}
		}
		apply()
		checkRebuild(t, first)
		snap := encodeGraph(t, v.Rebuild())
		dec, err := multigraph.Decode(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("Decode(Encode(Rebuild)): %v", err)
		}
		if !bytes.Equal(encodeGraph(t, dec), snap) {
			t.Fatal("Decode(Encode(Rebuild)) does not re-encode to the same bytes")
		}
	})
}
