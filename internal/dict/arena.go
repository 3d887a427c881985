package dict

import (
	"encoding/binary"
	"unsafe"
)

// loc packs where a string lives in an arena: its offset in the high 40
// bits and its length in the low 24. A string of longLen bytes or more
// has longLen in its length field, and its offset points at an 8-byte
// length that precedes its bytes.
type loc uint64

const (
	lenBits = 24
	longLen = 1<<lenBits - 1

	chunkBits = 16
	chunkSize = 1 << chunkBits // arena growth step, and the offset granule of chunks
	minAlloc  = 256            // the smallest allocation; the first of an arena that is not reserved
)

// arena is an append-only store of string bytes. Bytes once written are
// never moved or overwritten, so get returns views into it without
// copying, and they stay valid whatever is added later.
//
// Offsets are laid out in 64 KiB granules: chunks[k] views the allocation
// that holds offset k·chunkSize, from that offset to the allocation's end.
// An allocation larger than a granule takes several consecutive entries,
// so get finds any string with one index and one slice expression.
type arena struct {
	chunks [][]byte
	free   []byte // the unwritten tail of the newest allocation
	next   uint64 // offset of free[0]
	bytes  int    // string bytes held, excluding long-string length prefixes
}

// add copies s into the arena and returns its location.
func (a *arena) add(s string) loc {
	n, l := len(s), uint64(len(s))
	if l >= longLen {
		n, l = n+8, longLen
	}
	if n > len(a.free) {
		// Grow geometrically while the arena is small, then by chunkSize.
		a.alloc(max(n, min(chunkSize, max(minAlloc, a.bytes))))
	}
	off, b := a.next, a.free[:n]
	if l == longLen {
		binary.LittleEndian.PutUint64(b, uint64(len(s)))
		b = b[8:]
	}
	copy(b, s)
	a.free, a.next, a.bytes = a.free[n:], a.next+uint64(n), a.bytes+len(s)
	return loc(off<<lenBits | l)
}

// reserve makes room for n more bytes in one allocation of exactly that
// size, so a caller that knows its total writes all its strings into it.
func (a *arena) reserve(n int) {
	if n > len(a.free) {
		a.alloc(n)
	}
}

// alloc starts a new allocation of size bytes at the next free granule.
// What is left of the previous allocation is abandoned.
func (a *arena) alloc(size int) {
	buf := make([]byte, size)
	a.next = uint64(len(a.chunks)) << chunkBits
	if k := (size + chunkSize - 1) >> chunkBits; k > 1 {
		a.chunks = grow(a.chunks, k)
	}
	for o := 0; o < size; o += chunkSize {
		a.chunks = append(a.chunks, buf[o:])
	}
	a.free = buf
}

// get returns the string at l, a view into the arena.
func (a *arena) get(l loc) string {
	off, n := uint64(l>>lenBits), int(l&longLen)
	if n == 0 {
		return ""
	}
	b := a.chunks[off>>chunkBits][off&(chunkSize-1):]
	if n == longLen {
		n, b = int(binary.LittleEndian.Uint64(b)), b[8:]
	}
	return unsafe.String(unsafe.SliceData(b[:n]), n)
}

// grow returns s with room for n more elements, as slices.Grow does, but
// in one allocation also when built with -race, under which slices.Grow's
// append of a made slice allocates the made slice too.
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}
