// Package errorfs injects storage faults underneath the write-ahead
// log, in the spirit of errorfs-style test filesystems: a wrapper around
// the active segment file that, once armed, tears a write partway
// through (modeling a crash mid-write) or silently flips a bit in the
// written data (modeling media corruption the CRC layer must catch).
// Tests hand Injector.Wrap to wal.Options.WrapFile (or
// amber.DurabilityOptions.WrapWALFile) and arm a fault at a byte offset;
// the recovery and replication suites then verify that replay truncates
// the torn tail and that catch-up resumes from the surviving prefix.
package errorfs

import (
	"errors"
	"os"
	"sync"

	"repro/internal/wal"
)

// ErrInjected is the error returned by a torn (partial) write fault.
var ErrInjected = errors.New("errorfs: injected write fault")

// Mode selects what the armed fault does when the write budget runs out.
type Mode int

const (
	// PartialWrite writes only the bytes remaining in the budget, then
	// fails the write — the on-disk state holds a torn frame, exactly
	// what a crash between write and fsync leaves behind.
	PartialWrite Mode = iota
	// BitFlip flips one bit at the budget offset and reports success —
	// silent corruption that only the frame CRC can expose later.
	BitFlip
)

// Injector arms at most one fault at a time and counts the faults it
// has delivered. Safe for concurrent use; one Injector may wrap many
// files (the budget spans them all, in write order).
type Injector struct {
	mu     sync.Mutex
	armed  bool
	mode   Mode
	budget int64 // bytes that still pass through untouched
	faults int
}

// New returns an unarmed Injector: writes pass through untouched.
func New() *Injector { return &Injector{} }

// Arm schedules one fault: the next after bytes of written data pass
// through, then mode strikes. Re-arming replaces any pending fault.
func (i *Injector) Arm(after int64, mode Mode) {
	i.mu.Lock()
	i.armed = true
	i.mode = mode
	i.budget = after
	i.mu.Unlock()
}

// Faults reports how many faults have been delivered.
func (i *Injector) Faults() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.faults
}

// Wrap wraps f for wal.Options.WrapFile.
func (i *Injector) Wrap(f *os.File) wal.SegmentFile {
	return &file{inj: i, f: f}
}

type file struct {
	inj *Injector
	f   *os.File
}

func (w *file) Write(p []byte) (int, error) {
	i := w.inj
	i.mu.Lock()
	if !i.armed || i.budget >= int64(len(p)) {
		if i.armed {
			i.budget -= int64(len(p))
		}
		i.mu.Unlock()
		return w.f.Write(p)
	}
	// The fault lands inside this write.
	k := i.budget
	mode := i.mode
	i.armed = false
	i.faults++
	switch mode {
	case PartialWrite:
		i.mu.Unlock()
		n, err := w.f.Write(p[:k])
		if err != nil {
			return n, err
		}
		return n, ErrInjected
	default: // BitFlip
		i.mu.Unlock()
		buf := append([]byte(nil), p...)
		buf[k] ^= 1 << 3
		return w.f.Write(buf)
	}
}

func (w *file) Sync() error  { return w.f.Sync() }
func (w *file) Close() error { return w.f.Close() }
