// Package hot exercises the hot-path content rules and the
// poll-in-cycle requirement.
package hot

import (
	"fmt"
	"sync/atomic"
	"time"
)

type m struct {
	steps    int
	deadline time.Time
	expired  bool
	total    atomic.Int64
	seen     map[int]bool
}

// poll is the sanctioned amortized slow path: clock reads and atomics
// are fine here.
//
//amber:hotloop poll
func (x *m) poll() bool {
	x.steps++
	if x.steps&255 != 0 {
		return false
	}
	x.total.Add(int64(x.steps))
	if !x.deadline.IsZero() && time.Now().After(x.deadline) {
		x.expired = true
	}
	return x.expired
}

// ---- compliant code ----------------------------------------------------

//amber:hotloop
func (x *m) search(depth int) {
	if x.poll() {
		return
	}
	if depth == 0 {
		return
	}
	x.search(depth - 1)
}

// Mutual recursion where every member polls directly.
//
//amber:hotloop
func (x *m) stepA(d int) {
	if x.poll() {
		return
	}
	x.stepB(d)
}

//amber:hotloop
func (x *m) stepB(d int) {
	if x.poll() {
		return
	}
	x.stepA(d - 1)
}

// Non-recursive helpers need no poll.
//
//amber:hotloop
func (x *m) leaf(v int) int {
	return v * 2
}

// Unmarked functions are out of scope entirely.
func slowPath(v int) string {
	m := map[int]bool{}
	m[v] = true
	return fmt.Sprint(time.Now(), v)
}

// ---- violations --------------------------------------------------------

//amber:hotloop
func (x *m) badRecurse(d int) { // want "hot function badRecurse recurses but never polls for cancellation"
	if d == 0 {
		return
	}
	x.badRecurse(d - 1)
}

// Mutual recursion where one member skips the poll.
//
//amber:hotloop
func (x *m) stepC(d int) {
	if x.poll() {
		return
	}
	x.stepD(d)
}

//amber:hotloop
func (x *m) stepD(d int) { // want "hot function stepD recurses but never polls for cancellation"
	x.stepC(d - 1)
}

//amber:hotloop
func (x *m) badAtomic() {
	x.total.Add(1) // want "atomic operation in hot function badAtomic"
}

//amber:hotloop
func (x *m) badFmt(v int) {
	_ = fmt.Sprint(v) // want "fmt call in hot function badFmt"
}

//amber:hotloop
func (x *m) badClock() bool {
	return time.Now().After(x.deadline) // want "clock read in hot function badClock" "clock read in hot function badClock"
}

//amber:hotloop
func (x *m) badMapWrite(k int) {
	x.seen[k] = true // want "map write in hot function badMapWrite"
}

//amber:hotloop
func (x *m) badMapDelete(k int) {
	delete(x.seen, k) // want "map delete in hot function badMapDelete"
}

//amber:hotloop
func (x *m) badMake(n int) []bool {
	return make([]bool, n) // want "make in hot function badMake allocates per visit"
}

//amber:hotloop pool
func (x *m) badDirectiveArg() { // want "unknown //amber:hotloop argument \"pool\""
}
