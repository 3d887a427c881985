package core

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
)

// waitUntil polls cond (under qmu) until it holds or the deadline hits.
func waitUntil(t *testing.T, l *liveState, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.qmu.Lock()
		ok := cond()
		l.qmu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMutateGroupCommitForcedGroup deterministically forces a multi-batch
// commit group: the test holds the writer lock so the leader blocks in
// commit, seven followers enqueue behind it, and releasing the lock
// commits them as one group — one WAL append span, one fsync, one
// published snapshot covering all seven.
func TestMutateGroupCommitForcedGroup(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil { // fsync=always
		t.Fatal(err)
	}
	l := &s.live

	l.mu.Lock()
	errs := make(chan error, 8)
	go func() {
		errs <- s.Mutate([]rdf.Triple{tri("http://g/s0", "http://g/p", "http://g/o0")}, nil)
	}()
	// The leader has drained its own batch and is blocked on l.mu inside
	// commit once it is leading with an empty queue.
	waitUntil(t, l, "leader to block in commit", func() bool {
		return l.leading && len(l.queue) == 0
	})
	for i := 1; i < 8; i++ {
		go func(i int) {
			errs <- s.Mutate([]rdf.Triple{
				tri(fmt.Sprintf("http://g/s%d", i), "http://g/p", fmt.Sprintf("http://g/o%d", i)),
			}, nil)
		}(i)
	}
	waitUntil(t, l, "followers to enqueue", func() bool { return len(l.queue) == 7 })
	l.mu.Unlock()

	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Mutate: %v", err)
		}
	}
	wi := s.WriteInfo()
	if wi.Batches != 8 {
		t.Errorf("Batches = %d, want 8", wi.Batches)
	}
	if wi.Groups != 2 {
		t.Errorf("Groups = %d, want 2 (leader's own batch, then the group of 7)", wi.Groups)
	}
	if wi.MaxGroupSize != 7 {
		t.Errorf("MaxGroupSize = %d, want 7", wi.MaxGroupSize)
	}
	var bucketed uint64
	for _, n := range wi.GroupSizeBuckets {
		bucketed += n
	}
	if bucketed != wi.Groups {
		t.Errorf("group-size buckets sum to %d, want %d", bucketed, wi.Groups)
	}
	di := s.DurabilityInfo()
	if di.Appends != 8 {
		t.Errorf("WAL Appends = %d, want 8 (one record per batch)", di.Appends)
	}
	if di.Fsyncs >= di.Appends {
		t.Errorf("Fsyncs = %d not amortized below Appends = %d", di.Fsyncs, di.Appends)
	}
	if got := triples(s); got != 8 {
		t.Errorf("store has %d triples, want 8", got)
	}

	// Every acked batch must also be durable: a reopen replays all eight.
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s2 := newEmpty(t)
	n, err := s2.AttachWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("replayed %d records, want 8", n)
	}
	if got := triples(s2); got != 8 {
		t.Errorf("recovered store has %d triples, want 8", got)
	}
}

// TestMutateGroupCommitClearInGroup puts a Clear inside a commit group:
// with the leader blocked in commit, three batches, a Clear and two more
// batches queue behind it and commit as one group of six, in queue
// order. The Clear wipes the leader's batch and the three before it, so
// exactly the last two batches survive, live and after a reopen.
func TestMutateGroupCommitClearInGroup(t *testing.T) {
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil { // fsync=always
		t.Fatal(err)
	}
	l := &s.live
	before := s.Snapshot()

	batch := func(i int) rdf.Triple {
		return tri(fmt.Sprintf("http://c/s%d", i), "http://c/p", fmt.Sprintf("http://c/o%d", i))
	}
	l.mu.Lock()
	errs := make(chan error, 7)
	go func() { errs <- s.Mutate([]rdf.Triple{tri("http://c/lead", "http://c/p", "http://c/o")}, nil) }()
	waitUntil(t, l, "leader to block in commit", func() bool {
		return l.leading && len(l.queue) == 0
	})
	ops := []func() error{
		func() error { return s.Mutate([]rdf.Triple{batch(0)}, nil) },
		func() error { return s.Mutate([]rdf.Triple{batch(1)}, nil) },
		func() error { return s.Mutate([]rdf.Triple{batch(2)}, nil) },
		s.Clear,
		func() error { return s.Mutate([]rdf.Triple{batch(3)}, nil) },
		func() error { return s.Mutate([]rdf.Triple{batch(4)}, nil) },
	}
	for i, op := range ops {
		go func() { errs <- op() }()
		// One at a time, so the queue holds the operations in this order.
		waitUntil(t, l, fmt.Sprintf("operation %d to enqueue", i), func() bool { return len(l.queue) == i+1 })
	}
	l.mu.Unlock()
	for range 7 {
		if err := <-errs; err != nil {
			t.Fatalf("commit: %v", err)
		}
	}

	wi := s.WriteInfo()
	if wi.Groups != 2 || wi.MaxGroupSize != 6 || wi.Batches != 7 {
		t.Errorf("WriteInfo groups=%d max=%d batches=%d, want the leader's group of 1 and one group of 6",
			wi.Groups, wi.MaxGroupSize, wi.Batches)
	}
	after := s.Snapshot()
	if got := after.Epoch - before.Epoch; got != 1+6 {
		t.Errorf("epoch rose by %d, want 7 (1 for the leader's batch, 6 for the group)", got)
	}
	if got := after.Gen - before.Gen; got != 1 {
		t.Errorf("generation rose by %d, want 1 (the Clear)", got)
	}
	want := []string{batch(3).String(), batch(4).String()}
	slices.Sort(want)
	if got := tripleSet(s); !slices.Equal(got, want) {
		t.Errorf("store holds %v, want the last two batches %v", got, want)
	}

	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	s2 := newEmpty(t)
	if _, err := s2.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := tripleSet(s2); !slices.Equal(got, want) {
		t.Errorf("reopened store holds %v, want %v", got, want)
	}
}

// tripleSet lists the store's visible triples, sorted.
func tripleSet(s *Store) []string {
	var out []string
	s.Snapshot().Delta.Triples(func(t rdf.Triple) bool {
		out = append(out, t.String())
		return true
	})
	slices.Sort(out)
	return out
}

// TestMutateGroupCommitTorture: N concurrent writers against a durable
// fsync=always store. Every acked batch must be visible in the live
// store and must survive a reopen. Run under -race in CI.
func TestMutateGroupCommitTorture(t *testing.T) {
	const writers, batches = 8, 25
	dir := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(dir, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				adds := []rdf.Triple{
					tri(fmt.Sprintf("http://t/w%d/s%d", w, i), "http://t/p", fmt.Sprintf("http://t/w%d/o%d", w, i)),
				}
				if err := s.Mutate(adds, nil); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
				// Read-your-writes: the batch is visible immediately.
				if got := s.Snapshot().Delta; !got.Empty() && got.NumTriples() == 0 {
					t.Errorf("writer %d: own write invisible", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := writers * batches
	if got := triples(s); got != want {
		t.Fatalf("store has %d triples, want %d", got, want)
	}
	wi := s.WriteInfo()
	if wi.Batches != uint64(want) {
		t.Errorf("Batches = %d, want %d", wi.Batches, want)
	}
	if wi.Groups == 0 || wi.Groups > wi.Batches {
		t.Errorf("Groups = %d outside (0, %d]", wi.Groups, wi.Batches)
	}
	if err := s.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	s2 := newEmpty(t)
	n, err := s2.AttachWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Errorf("replayed %d records, want %d", n, want)
	}
	if got := triples(s2); got != want {
		t.Errorf("recovered store has %d triples, want %d", got, want)
	}
}

// TestStoreCrashPointRecoveryGroupCommit extends the crash-point sweep to
// group granularity: commit a forced multi-batch group, then truncate the
// WAL at every byte offset. Recovery must always land on a whole-batch
// prefix of the group — never a torn half-batch — and the recovered
// triple count must match the replayed batch count exactly.
func TestStoreCrashPointRecoveryGroupCommit(t *testing.T) {
	const followers = 6
	src := t.TempDir()
	s := newEmpty(t)
	if _, err := s.AttachWAL(src, WALOptions{}); err != nil {
		t.Fatal(err)
	}
	l := &s.live

	// Force one single-batch group then one six-batch group, as in
	// TestMutateGroupCommitForcedGroup. Every batch adds exactly two
	// disjoint triples, so any whole-batch prefix of k batches holds 2k
	// triples regardless of commit order within the group.
	l.mu.Lock()
	errs := make(chan error, followers+1)
	go func() {
		errs <- s.Mutate([]rdf.Triple{
			tri("http://c/lead", "http://c/p", "http://c/o"),
			tri("http://c/lead2", "http://c/p", "http://c/o"),
		}, nil)
	}()
	waitUntil(t, l, "leader to block in commit", func() bool {
		return l.leading && len(l.queue) == 0
	})
	for i := 0; i < followers; i++ {
		go func(i int) {
			errs <- s.Mutate([]rdf.Triple{
				tri(fmt.Sprintf("http://c/f%d/a", i), "http://c/p", "http://c/o"),
				tri(fmt.Sprintf("http://c/f%d/b", i), "http://c/p", "http://c/o"),
			}, nil)
		}(i)
	}
	waitUntil(t, l, "followers to enqueue", func() bool { return len(l.queue) == followers })
	l.mu.Unlock()
	for i := 0; i < followers+1; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Mutate: %v", err)
		}
	}
	if wi := s.WriteInfo(); wi.MaxGroupSize != followers {
		t.Fatalf("MaxGroupSize = %d, want %d (forced group failed)", wi.MaxGroupSize, followers)
	}
	s.CloseWAL()

	m, err := filepath.Glob(filepath.Join(src, "wal-*.seg"))
	if err != nil || len(m) != 1 {
		t.Fatalf("expected one segment, got %v (%v)", m, err)
	}
	full, err := os.ReadFile(m[0])
	if err != nil {
		t.Fatal(err)
	}

	total := followers + 1
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(m[0])), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := newEmpty(t)
		n, err := rec.AttachWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("cut=%d: AttachWAL: %v", cut, err)
		}
		if n > total {
			t.Fatalf("cut=%d: replayed %d batches, only %d committed", cut, n, total)
		}
		// All-or-prefix at batch granularity within the group: exactly the
		// replayed batches' triples, never part of one.
		if got, want := triples(rec), 2*n; got != want {
			t.Fatalf("cut=%d: recovered %d triples from %d batches, want %d", cut, got, n, want)
		}
		rec.CloseWAL()
	}
}
