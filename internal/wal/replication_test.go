package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestAppendExternalPreservesSequences(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{})
	recs := []Record{mut(0), mut(1), mut(2)}
	recs[0].Seq, recs[1].Seq, recs[2].Seq = 10, 11, 20 // gaps are fine
	last, err := l.AppendExternal(recs)
	if err != nil {
		t.Fatalf("AppendExternal: %v", err)
	}
	if last != 20 {
		t.Fatalf("last seq %d, want 20", last)
	}
	// Non-increasing or stale sequences are rejected.
	bad := []Record{mut(3)}
	bad[0].Seq = 20
	if _, err := l.AppendExternal(bad); err == nil {
		t.Fatal("AppendExternal accepted a stale sequence")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := openCollect(t, dir, Options{})
	defer l2.Close()
	gotSeqs := make([]uint64, len(got))
	for i, r := range got {
		gotSeqs[i] = r.Seq
	}
	if !reflect.DeepEqual(gotSeqs, []uint64{10, 11, 20}) {
		t.Fatalf("replayed seqs %v, want [10 11 20]", gotSeqs)
	}
	// Internal appends continue above the external high-water mark.
	if seq, err := l2.Append(mut(4)); err != nil || seq != 21 {
		t.Fatalf("Append after external: seq %d err %v", seq, err)
	}
}

func TestSubscribeNotifiesOnAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{})
	ch := l.Subscribe()
	select {
	case <-ch:
		t.Fatal("notified before any append")
	default:
	}
	if _, err := l.Append(mut(0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no notification after append")
	}
	// Bursts coalesce; the channel must never block the appender.
	for i := 1; i < 10; i++ {
		if _, err := l.Append(mut(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	l.Unsubscribe(ch)
	ch2 := l.Subscribe()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case _, open := <-ch2:
		if open {
			// drain the coalesced token, then expect close
			if _, open = <-ch2; open {
				t.Fatal("channel still open after log close")
			}
		}
	case <-time.After(time.Second):
		t.Fatal("subscription not closed with the log")
	}
}

func TestSegmentViewActiveBytesAreFrameComplete(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{SegmentBytes: 256, Policy: SyncNever})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append(mut(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	segs, lastSeq, _ := l.SegmentView()
	if lastSeq != 20 {
		t.Fatalf("lastSeq %d, want 20", lastSeq)
	}
	if !segs[len(segs)-1].Active {
		t.Fatal("last segment in view is not the active one")
	}
	// Every segment's reported byte span must decode to exactly its
	// records — the replication streamer relies on it.
	var prev, count uint64
	for _, seg := range segs {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatalf("reading %s: %v", seg.Path, err)
		}
		data = data[:seg.Bytes]
		var off int
		for off < len(data) {
			rec, n, derr := DecodeFrame(data[off:])
			if derr != nil {
				t.Fatalf("segment %s: bad frame at %d: %v", seg.Path, off, derr)
			}
			if rec.Seq <= prev {
				t.Fatalf("segment %s: seq %d not above %d", seg.Path, rec.Seq, prev)
			}
			prev = rec.Seq
			count++
			off += n
		}
	}
	if count != 20 {
		t.Fatalf("segment view decoded %d records, want 20", count)
	}
}

func TestRetainHookPinsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{SegmentBytes: 256, Policy: SyncNever})
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append(mut(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// A follower still needs seq 5: checkpointing at 40 must keep every
	// segment containing 5 or above, but still advance the marker.
	l.SetRetain(func(lastSeq uint64) uint64 { return 5 })
	if err := l.Checkpoint(40); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	segs, _, cpSeq := l.SegmentView()
	if cpSeq != 40 {
		t.Fatalf("checkpoint marker %d, want 40", cpSeq)
	}
	oldest := uint64(0)
	for _, seg := range segs {
		if seg.Last > 0 {
			oldest = seg.First
			break
		}
	}
	if oldest == 0 || oldest > 5 {
		t.Fatalf("oldest retained first seq %d; seq 5 must still be present", oldest)
	}
	// Dropping the hook lets the next checkpoint truncate fully.
	l.SetRetain(nil)
	if err := l.Checkpoint(40); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	segs, _, _ = l.SegmentView()
	for _, seg := range segs {
		if seg.Last > 0 && seg.Last <= 40 && !seg.Active {
			t.Fatalf("segment %s (last %d) survived an unconstrained checkpoint", seg.Path, seg.Last)
		}
	}
}

// TestGzipArchiveRefusesOpen: a directory holding a gzip-compressed
// sealed segment (wal-<first>.seg.gz) must not open, because replaying
// around the archive would silently drop the records inside it.
func TestGzipArchiveRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{})
	if _, err := l.Append(mut(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	archive := filepath.Join(dir, segName(1<<20)+".gz")
	if err := os.WriteFile(archive, []byte{0x1f, 0x8b}, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(dir, Options{}, nil); err == nil {
		l2.Close()
		t.Fatal("Open accepted a directory holding a gzip segment archive")
	}
	// Removing the archive (an operator decompressing it back to a plain
	// segment) makes the directory open again.
	if err := os.Remove(archive); err != nil {
		t.Fatal(err)
	}
	l3, got := openCollect(t, dir, Options{})
	defer l3.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

func TestWriteCheckpointFileBootstrapsCursor(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpointFile(dir, 77); err != nil {
		t.Fatalf("WriteCheckpointFile: %v", err)
	}
	if seq, err := CheckpointSeq(dir); err != nil || seq != 77 {
		t.Fatalf("CheckpointSeq: %d, %v", seq, err)
	}
	l, got := openCollect(t, dir, Options{})
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("fresh bootstrapped dir replayed %d records", len(got))
	}
	if l.LastSeq() != 77 {
		t.Fatalf("LastSeq %d, want 77", l.LastSeq())
	}
	// External appends resume at the primary's next sequence.
	rec := mut(0)
	rec.Seq = 78
	if _, err := l.AppendExternal([]Record{rec}); err != nil {
		t.Fatalf("AppendExternal: %v", err)
	}
}

func TestInitialSeqStampsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, got := openCollect(t, dir, Options{InitialSeq: 1})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	if l.LastSeq() != 1 {
		t.Fatalf("LastSeq %d, want 1 (stamped)", l.LastSeq())
	}
	// The stamp is a real checkpoint marker, readable without the log.
	if seq, err := CheckpointSeq(dir); err != nil || seq != 1 {
		t.Fatalf("CheckpointSeq: %d, %v (want 1)", seq, err)
	}
	// First record lands above the stamp.
	if seq, err := l.Append(mut(0)); err != nil || seq != 2 {
		t.Fatalf("Append: seq %d err %v, want 2", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the stamp persists and replay skips nothing it shouldn't.
	l2, got2 := openCollect(t, dir, Options{InitialSeq: 1})
	defer l2.Close()
	if len(got2) != 1 || got2[0].Seq != 2 {
		t.Fatalf("replayed %v, want one record at seq 2", got2)
	}
	if l2.LastSeq() != 2 {
		t.Fatalf("LastSeq after reopen %d, want 2", l2.LastSeq())
	}
}

func TestInitialSeqIgnoredWithHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := openCollect(t, dir, Options{})
	if seq, err := l.Append(mut(0)); err != nil || seq != 1 {
		t.Fatalf("Append: seq %d err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A log that already has records must not be restamped.
	l2, got := openCollect(t, dir, Options{InitialSeq: 1})
	defer l2.Close()
	if len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("replayed %v, want the original record at seq 1", got)
	}
	if l2.LastSeq() != 1 {
		t.Fatalf("LastSeq %d, want 1", l2.LastSeq())
	}
}
