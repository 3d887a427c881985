// Package obs models a resource meter whose methods hide atomics.
package obs

import "sync/atomic"

type ResourceMeter struct {
	progress atomic.Uint64
	levels   uint64
}

// SetProgress stores through an atomic: a hot loop must not call it.
func (m *ResourceMeter) SetProgress(level uint64) { m.progress.Store(level) }

// Progress loads through an atomic.
func (m *ResourceMeter) Progress() uint64 {
	return m.progress.Load()
}

// Levels reads a plain field: calling it from a hot loop is fine.
func (m *ResourceMeter) Levels() uint64 { return m.levels }

// Flush calls sync/atomic from a closure in its body.
func Flush(m *ResourceMeter, n uint64) {
	add := func() { m.progress.Add(n) }
	add()
}
