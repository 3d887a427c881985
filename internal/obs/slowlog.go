package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowLog writes a JSON-lines record for every trace whose duration
// meets a threshold. Records carry the truncated query text, plan
// summary, stage timings, engine counters, and snapshot epoch — enough
// to diagnose a hub-trap regression after the fact. A zero threshold
// disables it.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

// NewSlowLog builds a slow-query log writing to w. A nil writer or
// non-positive threshold yields a disabled log (Observe is a no-op).
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{threshold: threshold, w: w}
}

// Enabled reports whether Observe can ever write.
func (s *SlowLog) Enabled() bool { return s != nil }

// Observe writes the trace as one JSON line if its sealed duration
// meets the threshold. Call after Trace.Finish.
func (s *SlowLog) Observe(t *Trace) {
	if s == nil || t == nil {
		return
	}
	if t.Duration() < s.threshold {
		return
	}
	line, err := json.Marshal(t.View())
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	s.w.Write(line)
	s.mu.Unlock()
}
