package machine

import "time"

// LinkTimer bounds one node's blocking link operations by a timeout (the
// deadlock detection of ExchangeTimeout) with a single reusable timer that
// is armed only when an operation would block: a send into a free buffer
// slot or a receive of an already-delivered message costs no timer at all.
// A LinkTimer belongs to the goroutine running its node.
type LinkTimer struct {
	timeout time.Duration
	t       *time.Timer
}

// NewLinkTimer returns a LinkTimer whose operations give up after timeout.
func NewLinkTimer(timeout time.Duration) LinkTimer {
	return LinkTimer{timeout: timeout}
}

// arm starts the timeout for one blocking operation and returns its
// channel; the operation stops the timer again if it completes first.
func (lt *LinkTimer) arm() <-chan time.Time {
	if lt.t == nil {
		lt.t = time.NewTimer(lt.timeout)
	} else {
		lt.t.Reset(lt.timeout)
	}
	return lt.t.C
}

// Send sends v on ch, reporting false if ch stayed full for the timeout.
func Send[T any](lt *LinkTimer, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	default:
	}
	timeout := lt.arm()
	select {
	case ch <- v:
		// No drain needed: the module's go 1.24 line selects synchronous
		// timer channels, so a stopped timer delivers no stale expiry.
		lt.t.Stop()
		return true
	case <-timeout:
		return false
	}
}

// Recv receives from ch, reporting false if nothing arrived within the
// timeout.
func Recv[T any](lt *LinkTimer, ch <-chan T) (T, bool) {
	select {
	case v := <-ch:
		return v, true
	default:
	}
	timeout := lt.arm()
	select {
	case v := <-ch:
		lt.t.Stop()
		return v, true
	case <-timeout:
		var zero T
		return zero, false
	}
}
