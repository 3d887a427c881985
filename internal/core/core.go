// Package core assembles the complete AMbER system of the paper: the
// offline stage (RDF → data multigraph G, then index ensemble I = {A,S,N})
// and the online stage (SPARQL → query multigraph Q → sub-multigraph
// homomorphism search), extended with a live-update subsystem. It is the
// implementation behind the public amber package and the benchmark
// harness.
//
// A Store is a generation handle, not a frozen database: the current
// state is an immutable Snapshot (frozen base graph + ensemble + delta
// overlay) swapped atomically on every mutation, so readers pin a
// snapshot and never block writers or observe torn updates (MVCC).
// Writers serialize behind a mutex; past a configurable overlay size,
// background compaction rebuilds base+delta into a fresh generation —
// reusing the offline-stage Builder/index machinery — and swaps it in,
// refreshing the planner statistics as a side effect.
package core

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/dict"
	"repro/internal/index"
	"repro/internal/multigraph"
	"repro/internal/rdf"
)

// BuildStats records offline-stage costs, mirroring the paper's Table 5.
type BuildStats struct {
	// DatabaseTime is the time to transform the tripleset into G.
	DatabaseTime time.Duration
	// IndexTime is the time to build I = {A, S, N}.
	IndexTime time.Duration
	// DatabaseBytes and IndexBytes are analytic size estimates.
	DatabaseBytes int64
	IndexBytes    int64
}

// Snapshot is one immutable MVCC state of a Store: a frozen base
// generation plus the delta overlay on top of it. Everything a query
// needs — probe surface, dictionaries, statistics — hangs off the
// Delta view, which wraps the base. Snapshots are safe for concurrent
// readers and remain valid (and consistent) after the store moves on.
type Snapshot struct {
	// Graph and Index are the frozen base generation.
	Graph *multigraph.Graph
	Index *index.Index
	// Delta is the overlay view (empty for a pristine generation). It is
	// the snapshot's index.Reader and dict.Resolver.
	Delta *delta.View
	// Epoch increases on every successful mutation, compaction or clear:
	// equal epochs mean identical visible data, so caches key on it.
	Epoch uint64
	// Gen counts base generations (compactions and clears).
	Gen uint64
	// Build records the base generation's offline-stage costs.
	Build BuildStats
}

// Reader returns the snapshot's probe surface.
func (sn *Snapshot) Reader() index.Reader { return sn.Delta }

// Resolver returns the snapshot's dictionary surface.
func (sn *Snapshot) Resolver() dict.Resolver { return sn.Delta }

// Store is an AMbER database instance: a handle over the current
// Snapshot. Reads are lock-free; mutations serialize internally. All
// methods are safe for concurrent use.
//
// A store is in-memory by default; AttachWAL adds write-ahead
// durability: every mutation is logged (and fsynced, per policy) before
// it is published, and reopening the log replays acknowledged writes
// that a crash would otherwise lose.
type Store struct {
	live liveState // snapshot pointer, writer lock, compaction machinery

	// dur is the write-ahead log attachment; nil for in-memory stores.
	dur atomic.Pointer[durable]
}

// NewStore builds the store from a triple slice (offline stage).
func NewStore(triples []rdf.Triple) (*Store, error) {
	var b multigraph.Builder
	start := time.Now()
	if err := b.AddAll(triples); err != nil {
		return nil, err
	}
	return finish(&b, start)
}

// NewStoreFromReader streams triples from an N-Triples / prefixed-Turtle
// reader.
func NewStoreFromReader(r io.Reader) (*Store, error) {
	var b multigraph.Builder
	start := time.Now()
	dec := rdf.NewDecoder(r)
	for {
		t, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := b.Add(t); err != nil {
			return nil, err
		}
	}
	return finish(&b, start)
}

func finish(b *multigraph.Builder, start time.Time) (*Store, error) {
	g := b.Build()
	dbTime := time.Since(start)
	idxStart := time.Now()
	ix := index.Build(g)
	s := &Store{}
	s.live.init(&Snapshot{
		Graph: g,
		Index: ix,
		Delta: delta.NewView(g, ix),
		Build: BuildStats{
			DatabaseTime:  dbTime,
			IndexTime:     time.Since(idxStart),
			DatabaseBytes: estimateGraphBytes(g),
			IndexBytes:    estimateIndexBytes(ix),
		},
	})
	return s, nil
}

// Snapshot pins the current MVCC state. The returned snapshot stays
// consistent forever; run a whole query against one snapshot.
func (s *Store) Snapshot() *Snapshot { return s.live.snapshot() }

// Graph returns the current base generation's data multigraph. Note it
// excludes any uncompacted delta; use Snapshot().Delta for merged reads.
func (s *Store) Graph() *multigraph.Graph { return s.Snapshot().Graph }

// Index returns the current base generation's index ensemble.
func (s *Store) Index() *index.Index { return s.Snapshot().Index }

// BuildInfo returns the current base generation's offline-stage costs.
func (s *Store) BuildInfo() BuildStats { return s.Snapshot().Build }

// Epoch returns the current data version; it increases on every
// mutation, compaction and clear.
func (s *Store) Epoch() uint64 { return s.Snapshot().Epoch }

// estimateGraphBytes is an analytic size estimate of G: adjacency entries
// (8 bytes per neighbour on each side), edge-type labels and attributes (4
// bytes each), and the dictionaries' arrays.
func estimateGraphBytes(g *multigraph.Graph) int64 {
	labels, attrs := g.Entries()
	bytes := 2 * (8*int64(g.NumEdges()) + 4*int64(labels))
	bytes += 4 * int64(attrs)
	return bytes + g.Dicts.Bytes()
}

// estimateIndexBytes is an analytic size estimate of I = {A, S, N}.
func estimateIndexBytes(ix *index.Index) int64 {
	var bytes int64
	bytes += 4 * int64(ix.A.Entries())                             // A postings
	bytes += int64(ix.S.Len()) * (multigraph.SynopsisFields*4 + 8) // S leaves
	bytes += ix.N.Bytes()                                          // N flat arrays
	return bytes
}

// Save writes a binary snapshot of the merged data multigraph (base plus
// any uncompacted delta). Loading it with LoadStore skips RDF parsing;
// indexes are rebuilt deterministically.
func (s *Store) Save(w io.Writer) error { return writeSnapshot(w, s.Snapshot()) }

// writeSnapshot encodes the snapshot's merged multigraph. Save,
// Checkpoint and SaveReplica all write through it.
func writeSnapshot(w io.Writer, sn *Snapshot) error {
	if sn.Delta.Empty() {
		return sn.Graph.Encode(w)
	}
	g, err := materialize(sn.Delta)
	if err != nil {
		return err
	}
	return g.Encode(w)
}

// materialize rebuilds a frozen graph from a delta view's merged triple
// stream (the compaction and snapshot-save workhorse).
func materialize(v *delta.View) (*multigraph.Graph, error) {
	var b multigraph.Builder
	var addErr error
	v.Triples(func(t rdf.Triple) bool {
		addErr = b.Add(t)
		return addErr == nil
	})
	if addErr != nil {
		return nil, addErr
	}
	return b.Build(), nil
}

// LoadStore reads a snapshot written by Save and rebuilds the index
// ensemble.
func LoadStore(r io.Reader) (*Store, error) {
	start := time.Now()
	g, err := multigraph.Decode(r)
	if err != nil {
		return nil, err
	}
	dbTime := time.Since(start)
	idxStart := time.Now()
	ix := index.Build(g)
	s := &Store{}
	s.live.init(&Snapshot{
		Graph: g,
		Index: ix,
		Delta: delta.NewView(g, ix),
		Build: BuildStats{
			DatabaseTime:  dbTime,
			IndexTime:     time.Since(idxStart),
			DatabaseBytes: estimateGraphBytes(g),
			IndexBytes:    estimateIndexBytes(ix),
		},
	})
	return s, nil
}
