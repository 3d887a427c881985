// Package eng calls obs from hot functions: rule V1 across packages.
package eng

import "vettest/obs"

type matcher struct {
	meter *obs.ResourceMeter
	level int
}

// recordLevel stores the meter's progress on every level visit.
//
//amber:hotloop
func (m *matcher) recordLevel(l int) {
	m.level = l
	m.meter.SetProgress(uint64(l)) // want "call in hot function recordLevel to \\(\\*vettest/obs.ResourceMeter\\).SetProgress, which does atomic operations"
}

//amber:hotloop
func (m *matcher) peek() uint64 {
	obs.Flush(m.meter, 1)                        // want "call in hot function peek to vettest/obs.Flush, which does atomic operations"
	return m.meter.Progress() + m.meter.Levels() // want "call in hot function peek to \\(\\*vettest/obs.ResourceMeter\\).Progress, which does atomic operations"
}

// flushMeter is the sanctioned slow path: it may call the meter.
//
//amber:hotloop poll
func (m *matcher) flushMeter() {
	m.meter.SetProgress(uint64(m.level))
}

// Unmarked functions may call the meter.
func (m *matcher) finish() {
	m.meter.SetProgress(uint64(m.level))
}
