package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// walBatch is one scripted durable write: a mutation batch or a clear.
type walBatch struct {
	adds, dels []rdf.Triple
	clear      bool
}

func tri(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func lit(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewLiteral(o)}
}

// script returns a deterministic update sequence exercising adds, deletes,
// attribute triples and a mid-sequence clear.
func script() []walBatch {
	var bs []walBatch
	for i := 0; i < 4; i++ {
		bs = append(bs, walBatch{adds: []rdf.Triple{
			tri(fmt.Sprintf("http://x/s%d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i)),
			lit(fmt.Sprintf("http://x/s%d", i), "http://x/name", fmt.Sprintf("node %d", i)),
		}})
	}
	bs = append(bs, walBatch{dels: []rdf.Triple{tri("http://x/s1", "http://x/p", "http://x/o1")}})
	bs = append(bs, walBatch{clear: true})
	for i := 0; i < 3; i++ {
		bs = append(bs, walBatch{adds: []rdf.Triple{
			tri(fmt.Sprintf("http://y/a%d", i), "http://y/q", "http://y/hub"),
		}})
	}
	return bs
}

func applyBatch(t *testing.T, s *Store, b walBatch) {
	t.Helper()
	var err error
	if b.clear {
		err = s.Clear()
	} else {
		err = s.Mutate(b.adds, b.dels)
	}
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
}

func triples(s *Store) int { return s.Snapshot().Delta.NumTriples() }

func newEmpty(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDurableReopenEqualsRebuild(t *testing.T) {
	dir := t.TempDir()
	s1 := newEmpty(t)
	if n, err := s1.AttachWAL(dir, WALOptions{}); err != nil || n != 0 {
		t.Fatalf("AttachWAL: n=%d err=%v", n, err)
	}
	bs := script()
	for _, b := range bs {
		applyBatch(t, s1, b)
	}
	want := triples(s1)
	if err := s1.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Mutate([]rdf.Triple{tri("http://x/late", "http://x/p", "http://x/o")}, nil); err == nil {
		t.Fatal("Mutate succeeded after CloseWAL")
	}

	// Reopen: replay must land exactly on the acknowledged state...
	s2 := newEmpty(t)
	n, err := s2.AttachWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("reopen AttachWAL: %v", err)
	}
	if n != len(bs) {
		t.Fatalf("replayed %d records, want %d", n, len(bs))
	}
	if got := triples(s2); got != want {
		t.Fatalf("replayed store has %d triples, want %d", got, want)
	}
	// ...which equals a from-scratch, in-memory rebuild of the sequence.
	ref := newEmpty(t)
	for _, b := range bs {
		applyBatch(t, ref, b)
	}
	if got, exp := triples(s2), triples(ref); got != exp {
		t.Fatalf("replayed store %d triples, rebuild %d", got, exp)
	}
}

func TestCheckpointTruncatesAndSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{SegmentBytes: 256}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		applyBatch(t, s, walBatch{adds: []rdf.Triple{
			tri(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o"),
		}})
	}
	before := s.DurabilityInfo()
	if before.Segments < 2 {
		t.Fatalf("want rotation before checkpoint, got %d segments", before.Segments)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := s.DurabilityInfo()
	if after.Segments != 1 || after.WALBytes != 0 {
		t.Fatalf("checkpoint left %d segments / %d bytes", after.Segments, after.WALBytes)
	}
	if after.CheckpointSeq != before.LastSeq {
		t.Fatalf("CheckpointSeq %d, want %d", after.CheckpointSeq, before.LastSeq)
	}
	if _, err := os.Stat(CheckpointSnapshotPath(dir)); err != nil {
		t.Fatalf("checkpoint snapshot missing: %v", err)
	}
	// Two post-checkpoint updates are the only replay work left.
	applyBatch(t, s, walBatch{adds: []rdf.Triple{tri("http://x/post1", "http://x/p", "http://x/o")}})
	applyBatch(t, s, walBatch{adds: []rdf.Triple{tri("http://x/post2", "http://x/p", "http://x/o")}})
	want := triples(s)
	s.CloseWAL()

	f, err := os.Open(CheckpointSnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.AttachWAL(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records after checkpoint, want 2", n)
	}
	if got := triples(s2); got != want {
		t.Fatalf("recovered %d triples, want %d", got, want)
	}
}

// TestStoreCrashPointRecovery truncates the WAL at every byte offset and
// asserts the recovered store is a valid prefix state: its triple count
// equals a from-scratch rebuild of exactly the surviving batches.
func TestStoreCrashPointRecovery(t *testing.T) {
	src := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(src, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	bs := script()
	// prefixCount[k] = triples after the first k batches.
	ref := newEmpty(t)
	prefixCount := []int{triples(ref)}
	segPath := ""
	var ends []int64
	for _, b := range bs {
		applyBatch(t, s, b)
		applyBatch(t, ref, b)
		prefixCount = append(prefixCount, triples(ref))
		if segPath == "" {
			m, err := filepath.Glob(filepath.Join(src, "wal-*.seg"))
			if err != nil || len(m) != 1 {
				t.Fatalf("expected one segment, got %v (%v)", m, err)
			}
			segPath = m[0]
		}
		info, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, info.Size())
	}
	s.CloseWAL()
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	complete := func(cut int64) int {
		k := 0
		for k < len(ends) && ends[k] <= cut {
			k++
		}
		return k
	}

	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segPath)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := newEmpty(t)
		n, err := rec.AttachWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: AttachWAL: %v", cut, err)
		}
		j := complete(cut)
		if n != j {
			t.Fatalf("cut=%d: replayed %d batches, want %d", cut, n, j)
		}
		if got, want := triples(rec), prefixCount[j]; got != want {
			t.Fatalf("cut=%d: recovered %d triples, rebuild of %d batches has %d", cut, got, j, want)
		}
		rec.CloseWAL()
	}
}

func TestCheckpointOnCompact(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{CheckpointOnCompact: true}); err != nil {
		t.Fatal(err)
	}
	s.SetCompactThreshold(8)
	for i := 0; i < 20; i++ {
		applyBatch(t, s, walBatch{adds: []rdf.Triple{
			tri(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o"),
		}})
	}
	s.WaitCompaction()
	if err := s.Compact(); err != nil { // force a final fold + checkpoint
		t.Fatal(err)
	}
	di := s.DurabilityInfo()
	if di.Checkpoints == 0 {
		t.Fatalf("no automatic checkpoint ran: %+v", di)
	}
	if di.LastCheckpointError != "" {
		t.Fatalf("auto checkpoint failed: %s", di.LastCheckpointError)
	}
	want := triples(s)
	s.CloseWAL()

	f, err := os.Open(CheckpointSnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := LoadStore(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := triples(s2); got != want {
		t.Fatalf("recovered %d triples, want %d", got, want)
	}
}

// TestCompactionCheckpointWritesSwappedBase: the checkpoint after a
// compaction writes the base the compaction swapped in, at the sequence of
// the last record that base holds, and leaves the writes that raced the
// rebuild in the log. base.snap then encodes the swapped-in base, and a
// reopen replays exactly the raced writes back to the live triple set.
func TestCompactionCheckpointWritesSwappedBase(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{CheckpointOnCompact: true}); err != nil {
		t.Fatal(err)
	}
	s.SetCompactThreshold(0)
	for i := range 10 {
		applyBatch(t, s, walBatch{adds: []rdf.Triple{
			tri(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o"),
			lit(fmt.Sprintf("http://x/s%d", i), "http://x/name", fmt.Sprintf("node %d", i)),
		}})
	}
	const raced = 3
	s.live.rebuilt = func() {
		for i := range raced {
			applyBatch(t, s, walBatch{
				adds: []rdf.Triple{tri(fmt.Sprintf("http://x/r%d", i), "http://x/q", "http://x/s0")},
				dels: []rdf.Triple{lit(fmt.Sprintf("http://x/s%d", i), "http://x/name", fmt.Sprintf("node %d", i))},
			})
		}
	}
	seq := s.WAL().LastSeq()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if di := s.DurabilityInfo(); di.Checkpoints != 1 || di.CheckpointSeq != seq || di.LastCheckpointError != "" {
		t.Fatalf("%d checkpoints through seq %d (error %q), want one through %d", di.Checkpoints, di.CheckpointSeq, di.LastCheckpointError, seq)
	}
	var base bytes.Buffer
	if err := s.Snapshot().Graph.Encode(&base); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(CheckpointSnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, base.Bytes()) {
		t.Fatal("base.snap holds other bytes than the swapped-in base")
	}
	want := tripleSet(s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	r, err := LoadStore(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.AttachWAL(dir, WALOptions{}); err != nil || n != raced {
		t.Fatalf("reopen replayed %d records (err %v), want the %d raced writes", n, err, raced)
	}
	if got := tripleSet(r); !slices.Equal(got, want) {
		t.Fatalf("reopened store holds %d triples, want %d", len(got), len(want))
	}
}

// TestPersistBelowCheckpointWritesNothing: a persist captured before the
// log's checkpoint, which a later capture has already installed, leaves
// base.snap and the checkpoint marker as they are.
func TestPersistBelowCheckpointWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	bs := script()
	for _, b := range bs[:3] {
		applyBatch(t, s, b)
	}
	d := s.dur.Load()
	old, oldSeq := s.capture(d)
	for _, b := range bs[3:] {
		applyBatch(t, s, b)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	files := func() (snap, marker []byte) {
		t.Helper()
		var err error
		if snap, err = os.ReadFile(CheckpointSnapshotPath(dir)); err != nil {
			t.Fatal(err)
		}
		if marker, err = os.ReadFile(filepath.Join(dir, "checkpoint")); err != nil {
			t.Fatal(err)
		}
		return snap, marker
	}
	snap, marker := files()
	cp := s.DurabilityInfo().CheckpointSeq
	if err := d.persist(old.merged(), oldSeq); err != nil {
		t.Fatalf("persist below the checkpoint: %v", err)
	}
	if snap2, marker2 := files(); !bytes.Equal(snap2, snap) || !bytes.Equal(marker2, marker) {
		t.Fatal("a persist below the checkpoint rewrote base.snap or the checkpoint marker")
	}
	if di := s.DurabilityInfo(); di.CheckpointSeq != cp || di.Checkpoints != 1 {
		t.Fatalf("checkpoint moved to seq %d after %d checkpoints, want seq %d after one", di.CheckpointSeq, di.Checkpoints, cp)
	}
}

func TestDurabilityMiscErrors(t *testing.T) {
	s := newEmpty(t)
	if err := s.Checkpoint(); err != ErrNotDurable {
		t.Fatalf("Checkpoint on in-memory store: %v", err)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatalf("SyncWAL on in-memory store: %v", err)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL on in-memory store: %v", err)
	}
	dir := t.TempDir()
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AttachWAL(dir, WALOptions{}); err == nil {
		t.Fatal("double AttachWAL succeeded")
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAfterCloseFailsFast: a checkpoint attempted after the WAL
// closed (e.g. the old generation of a server reload) must fail before
// touching the snapshot file — overwriting a successor's base.snap would
// silently roll back its acknowledged updates.
func TestCheckpointAfterCloseFailsFast(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	applyBatch(t, s, walBatch{adds: []rdf.Triple{tri("http://x/s", "http://x/p", "http://x/o")}})
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded on a closed WAL")
	}
	if _, err := os.Stat(CheckpointSnapshotPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("closed-WAL checkpoint touched base.snap (stat err: %v)", err)
	}
	// Mutations on the closed store carry the durability sentinel.
	err := s.Mutate([]rdf.Triple{tri("http://x/s2", "http://x/p", "http://x/o")}, nil)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Mutate after close: %v, want ErrDurability", err)
	}
	if err := s.Clear(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Clear after close: %v, want ErrDurability", err)
	}
}

// TestReplayCompactsOnceAfter: replaying a log whose records cross the
// compaction threshold many times compacts nothing while it runs; the
// attached store then compacts exactly once, which leaves the overlay
// empty and the triple set as it was, so every reopen saves the same
// bytes. Under CheckpointOnCompact that one compaction is followed by one
// checkpoint.
func TestReplayCompactsOnceAfter(t *testing.T) {
	const threshold = 16
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	s.SetCompactThreshold(0)
	for i := range 60 {
		b := walBatch{}
		for j := range 6 {
			b.adds = append(b.adds, tri(fmt.Sprintf("http://x/s%d", i), fmt.Sprintf("http://x/p%d", j%3), fmt.Sprintf("http://x/o%d", (i+j)%40)))
		}
		b.adds = append(b.adds, lit(fmt.Sprintf("http://x/s%d", i), "http://x/name", fmt.Sprintf("n%d", i%7)))
		if i > 0 {
			b.dels = []rdf.Triple{tri(fmt.Sprintf("http://x/s%d", i-1), "http://x/p0", fmt.Sprintf("http://x/o%d", (i-1)%40))}
		}
		applyBatch(t, s, b)
	}
	want := tripleSet(s)
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	reopen := func(o WALOptions) *Store {
		t.Helper()
		r := newEmpty(t)
		r.SetCompactThreshold(threshold)
		if n, err := r.AttachWAL(dir, o); err != nil || n != 60 {
			t.Fatalf("AttachWAL: replayed %d records, err %v; want 60", n, err)
		}
		r.WaitCompaction()
		if gi := r.GenerationInfo(); gi.Compactions != 1 || gi.Generation != 1 {
			t.Fatalf("%d compactions, generation %d: want one compaction, after replay", gi.Compactions, gi.Generation)
		}
		if d := r.Snapshot().Delta; !d.Empty() {
			t.Fatalf("overlay holds %d entries after the compaction", d.Size())
		}
		if got := tripleSet(r); !slices.Equal(got, want) {
			t.Fatalf("reopened store holds %d triples, want %d", len(got), len(want))
		}
		return r
	}
	var first []byte
	for i := range 3 {
		r := reopen(WALOptions{})
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("reopen %d saves other bytes than the first", i)
		}
		if err := r.CloseWAL(); err != nil {
			t.Fatal(err)
		}
	}
	r := reopen(WALOptions{CheckpointOnCompact: true})
	if di := r.DurabilityInfo(); di.Checkpoints != 1 || di.LastCheckpointError != "" {
		t.Fatalf("%d checkpoints (last error %q), want one after the compaction", di.Checkpoints, di.LastCheckpointError)
	}
	if err := r.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(CheckpointSnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, first) {
		t.Fatal("the checkpoint holds other bytes than Save")
	}
}
