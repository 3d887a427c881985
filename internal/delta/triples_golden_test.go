package delta

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/rdf"
)

var updateTriples = flag.Bool("update", false, "rewrite testdata/triples.golden from the current View.Triples")

const triplesGoldenPath = "testdata/triples.golden"

// triplesGoldenView builds the pinned input: a LUBM(1) base and three
// overlay batches that tombstone base edges and literals (some inside
// multi-edges), re-add a few of them, add edge types to existing pairs and
// insert triples over new vertices, edge types and literals.
func triplesGoldenView(t *testing.T) *View {
	t.Helper()
	base := datagen.LUBM(datagen.LUBMConfig{Universities: 1, Seed: 41})
	g, err := multigraph.FromTriples(base)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(g, index.Build(g))
	rng := rand.New(rand.NewSource(41))
	pick := func() rdf.Triple { return base[rng.Intn(len(base))] }
	var dels, readds, adds []rdf.Triple
	for range 300 {
		dels = append(dels, pick())
	}
	readds = append(readds, dels[:40]...)
	for i := range 200 {
		s, o := pick(), pick()
		switch i % 4 {
		case 0: // a second type on an existing pair, or a new pair
			adds = append(adds, rdf.Triple{S: s.S, P: o.P, O: s.O})
		case 1: // a new edge type between existing vertices
			adds = append(adds, rdf.Triple{S: s.S, P: rdf.NewIRI(fmt.Sprintf("http://golden/p%d", i%7)), O: o.S})
		case 2: // new vertices, as subject and as object
			adds = append(adds, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://golden/v%d", i)), P: s.P, O: o.S},
				rdf.Triple{S: o.S, P: rdf.NewIRI("http://golden/p0"), O: rdf.NewIRI(fmt.Sprintf("http://golden/w%d", i))})
		default: // new and existing literals
			adds = append(adds, rdf.Triple{S: s.S, P: rdf.NewIRI("http://golden/label"), O: rdf.NewLiteral(fmt.Sprintf("l%d", i%11))})
		}
	}
	for _, b := range [][2][]rdf.Triple{{adds[:100], dels[:200]}, {readds, dels[200:]}, {adds[100:], nil}} {
		if v, err = v.Apply(b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	if v.Tombstones() == 0 || v.Adds() == 0 {
		t.Fatalf("overlay holds %d adds and %d tombstones, want both", v.Adds(), v.Tombstones())
	}
	return v
}

// TestTriplesGolden pins the sequence View.Triples yields over a base and
// an overlay. Compaction interns the stream's terms in this order, so the
// sequence fixes the ids of the next generation and, with them, the row
// order of every answer after a compaction; the test also checks that
// Rebuild builds the graph a Builder fed this stream builds. The golden holds the triple
// count, the SHA-256 of the whole N-Triples stream and every 256th line,
// so a change shows where the order first moved. Run with -update to
// rewrite it after a deliberate change of order.
func TestTriplesGolden(t *testing.T) {
	v := triplesGoldenView(t)
	var got bytes.Buffer
	h, n := sha256.New(), 0
	var sample bytes.Buffer
	v.Triples(func(tr rdf.Triple) bool {
		line := tr.String() + "\n"
		h.Write([]byte(line))
		if n%256 == 0 {
			fmt.Fprintf(&sample, "%06d %s", n, line)
		}
		n++
		return true
	})
	if n != v.NumTriples() {
		t.Fatalf("Triples yielded %d triples, NumTriples = %d", n, v.NumTriples())
	}
	fmt.Fprintf(&got, "triples %d\nsha256 %x\n", n, h.Sum(nil))
	got.Write(sample.Bytes())
	if *updateTriples {
		if err := os.MkdirAll(filepath.Dir(triplesGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(triplesGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkRebuild(t, v)
	want, err := os.ReadFile(triplesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("View.Triples differs from %s at golden line %d:\n got %s\nwant %s", triplesGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("View.Triples differs from %s: %d lines, want %d", triplesGoldenPath, len(gl), len(wl))
	}
}
