// Package rcupin exercises the rcupin analyzer: every snapshot pin
// must be released on all paths (including panic paths, via defer),
// and no blocking operation may happen while a pin is held.
package rcupin

import (
	"fmt"
	"sync"
)

type reader struct {
	mu sync.Mutex
}

func (r *reader) pin()   {}
func (r *reader) unpin() {}

func work() {}

// good pairs the pin with an unconditional defer.
func good(r *reader) {
	r.pin()
	defer r.unpin()
	work()
}

// deferredClosure releases inside a deferred function literal — the
// panic-safe form the service worker uses.
func deferredClosure(r *reader) {
	r.pin()
	defer func() {
		r.unpin()
	}()
	work()
}

// branches pins in only one arm; the sibling arm stays clean and the
// pinned arm releases before falling out.
func branches(r *reader, c bool) {
	if c {
		r.pin()
		work()
		r.unpin()
	} else {
		work()
	}
}

// loopPaired pins and unpins within each iteration.
func loopPaired(r *reader, n int) {
	for i := 0; i < n; i++ {
		r.pin()
		work()
		r.unpin()
	}
}

func leaks(r *reader) { // want `leaks can exit with an RCU snapshot pinned \(no unpin on some path; mark //ring:pins if the caller releases\)`
	r.pin()
	work()
}

func earlyReturn(r *reader, c bool) {
	r.pin()
	if c {
		return // want `return with RCU snapshot pinned \(no unpin on this path\)`
	}
	r.unpin()
}

func blocksOnLock(r *reader) {
	r.pin()
	r.mu.Lock() // want `mutex Lock while RCU snapshot pinned \(may answer from a replaced snapshot\)`
	r.mu.Unlock()
	r.unpin()
}

func sends(r *reader, ch chan int) {
	r.pin()
	ch <- 1 // want `channel send while RCU snapshot pinned \(may answer from a replaced snapshot\)`
	r.unpin()
}

func receives(r *reader, ch chan int) int {
	r.pin()
	v := <-ch // want `channel receive while RCU snapshot pinned \(may answer from a replaced snapshot\)`
	r.unpin()
	return v
}

func selects(r *reader) {
	r.pin()
	select { // want `select while RCU snapshot pinned \(may answer from a replaced snapshot\)`
	default:
	}
	r.unpin()
}

func logsWhilePinned(r *reader) {
	r.pin()
	fmt.Println("x") // want `fmt\.Println while RCU snapshot pinned \(may answer from a replaced snapshot\)`
	r.unpin()
}

// acquire pins on the caller's behalf — the batch-scoped pattern; the
// marker transfers the release obligation to every caller.
//
//ring:pins
func acquire(r *reader) {
	r.pin()
}

// caller inherits acquire's obligation and discharges it.
func caller(r *reader) {
	acquire(r)
	defer r.unpin()
	work()
}

func forgets(r *reader) { // want `forgets can exit with an RCU snapshot pinned \(no unpin on some path; mark //ring:pins if the caller releases\)`
	acquire(r)
	work()
}
