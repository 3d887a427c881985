package delta

import (
	"hash/maphash"
	"sync/atomic"
)

// swmap is a hash map for one serialized writer and many lock-free
// readers: the overlay's batch writer inserts and updates, concurrent
// View readers only load. It exists because the overlay write path is
// hot enough that sync.Map's per-store entry allocations and interface
// boxing dominate Apply profiles; swmap's typed entries cost one
// allocation per new key and none per value update.
//
// Publication safety: an entry is fully initialized before the atomic
// bucket store that makes it reachable, so a reader that can find an
// entry sees it whole. A resize builds a fresh table sharing the value
// pointers and swaps it in atomically; readers holding the old table
// keep a frozen-but-consistent picture, and any state published to them
// afterwards (a newer snapshot) happens-after the swap, so they load
// the new table before they could need anything newer.
//
// Writer caveat: an entry handle obtained from entry() is tied to the
// table it was found in — any insert into the same map may resize and
// strand it. Callers update through a handle only with no intervening
// insert on the same map.
type swmap[K comparable, V any] struct {
	seed  maphash.Seed
	table atomic.Pointer[swtable[K, V]]
	n     int // live keys; writer-owned
}

type swtable[K comparable, V any] struct {
	buckets []atomic.Pointer[swentry[K, V]]
	mask    uint64
}

type swentry[K comparable, V any] struct {
	key  K
	val  atomic.Pointer[V]
	next *swentry[K, V]
}

// load returns k's current value pointer, or nil when absent.
func (m *swmap[K, V]) load(k K) *V {
	t := m.table.Load()
	if t == nil {
		return nil
	}
	for e := t.buckets[maphash.Comparable(m.seed, k)&t.mask].Load(); e != nil; e = e.next {
		if e.key == k {
			return e.val.Load()
		}
	}
	return nil
}

// entry returns k's entry for an in-place value update, or nil when
// absent (writer only; see the handle caveat above).
func (m *swmap[K, V]) entry(k K) *swentry[K, V] {
	t := m.table.Load()
	if t == nil {
		return nil
	}
	for e := t.buckets[maphash.Comparable(m.seed, k)&t.mask].Load(); e != nil; e = e.next {
		if e.key == k {
			return e
		}
	}
	return nil
}

// insert adds a key the writer knows is absent.
func (m *swmap[K, V]) insert(k K, v *V) {
	t := m.table.Load()
	if t == nil || m.n >= len(t.buckets)*3/4 {
		t = m.grow(t)
	}
	e := &swentry[K, V]{key: k}
	e.val.Store(v)
	b := &t.buckets[maphash.Comparable(m.seed, k)&t.mask]
	e.next = b.Load()
	b.Store(e)
	m.n++
}

func (m *swmap[K, V]) grow(old *swtable[K, V]) *swtable[K, V] {
	size := 8
	if old == nil {
		m.seed = maphash.MakeSeed()
	} else {
		size = len(old.buckets) * 2
	}
	nt := &swtable[K, V]{
		buckets: make([]atomic.Pointer[swentry[K, V]], size),
		mask:    uint64(size - 1),
	}
	if old != nil {
		for i := range old.buckets {
			for e := old.buckets[i].Load(); e != nil; e = e.next {
				ne := &swentry[K, V]{key: e.key}
				ne.val.Store(e.val.Load())
				b := &nt.buckets[maphash.Comparable(m.seed, e.key)&nt.mask]
				ne.next = b.Load()
				b.Store(ne)
			}
		}
	}
	m.table.Store(nt)
	return nt
}

// rangeAll calls f for every key until f returns false. Safe for
// readers concurrent with the writer: the iteration sees some table
// version; keys inserted later may be missed, exactly like sync.Map.
func (m *swmap[K, V]) rangeAll(f func(K, *V) bool) {
	t := m.table.Load()
	if t == nil {
		return
	}
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next {
			if !f(e.key, e.val.Load()) {
				return
			}
		}
	}
}
