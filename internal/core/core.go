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
// the overlay's id-level walk fed to the offline-stage Builder, then the
// index build — and swaps it in, refreshing the planner statistics as a
// side effect.
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
	// IndexTime is the time to build S and the planner statistics; A
	// and N are G's attribute side and adjacency, built with G.
	IndexTime time.Duration
	// DatabaseBytes is the size of G's arrays and dictionaries, A's and
	// N's among them; IndexBytes is the size of S's.
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
	s := &Store{}
	s.live.init(newGeneration(g, time.Since(start)))
	return s, nil
}

// newGeneration runs the offline index stage over g and returns the
// pristine snapshot of the new base generation, with Epoch and Gen zero:
// store creation, snapshot load, compaction and Clear all build a
// generation through it. dbTime is the time already spent producing g.
func newGeneration(g *multigraph.Graph, dbTime time.Duration) *Snapshot {
	start := time.Now()
	ix := index.Build(g)
	return &Snapshot{
		Graph: g,
		Index: ix,
		Delta: delta.NewView(g, ix),
		Build: BuildStats{
			DatabaseTime:  dbTime,
			IndexTime:     time.Since(start),
			DatabaseBytes: g.Bytes(),
			IndexBytes:    ix.S.Bytes(),
		},
	}
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

// Save writes a binary snapshot of the merged data multigraph (base plus
// any uncompacted delta). Loading it with LoadStore skips RDF parsing;
// indexes are rebuilt deterministically.
func (s *Store) Save(w io.Writer) error { return s.Snapshot().merged().Encode(w) }

// merged returns the snapshot's merged multigraph: the base itself when
// the overlay is empty, else a rebuild of base plus overlay. Save,
// Checkpoint and SaveReplica all encode it.
func (sn *Snapshot) merged() *multigraph.Graph {
	if sn.Delta.Empty() {
		return sn.Graph
	}
	return sn.Delta.Rebuild()
}

// LoadStore reads a snapshot written by Save and rebuilds the index
// ensemble.
func LoadStore(r io.Reader) (*Store, error) {
	start := time.Now()
	g, err := multigraph.Decode(r)
	if err != nil {
		return nil, err
	}
	s := &Store{}
	s.live.init(newGeneration(g, time.Since(start)))
	return s, nil
}
