package machine

import (
	"testing"
	"time"
)

// TestLinkTimer: operations that can complete at once succeed without a
// timer, blocked ones give up after the timeout, and the one reusable timer
// keeps working after both an expiry and an early stop.
func TestLinkTimer(t *testing.T) {
	lt := NewLinkTimer(20 * time.Millisecond)
	ch := make(chan int, 1)
	if !Send(&lt, ch, 1) {
		t.Fatal("send into a free slot failed")
	}
	if lt.t != nil {
		t.Error("a send that did not block armed the timer")
	}
	if Send(&lt, ch, 2) {
		t.Fatal("send into a full channel succeeded")
	}
	if v, ok := Recv(&lt, ch); !ok || v != 1 {
		t.Fatalf("receive got (%d, %v), want (1, true)", v, ok)
	}
	if _, ok := Recv(&lt, ch); ok {
		t.Fatal("receive from an empty channel succeeded")
	}
	// A blocked receive that its partner satisfies stops the timer; the
	// next blocked operation must still wait its full timeout, not see a
	// stale expiry.
	go func() {
		time.Sleep(2 * time.Millisecond)
		ch <- 3
	}()
	if v, ok := Recv(&lt, ch); !ok || v != 3 {
		t.Fatalf("late receive got (%d, %v), want (3, true)", v, ok)
	}
	start := time.Now()
	if _, ok := Recv(&lt, ch); ok {
		t.Fatal("receive from an empty channel succeeded")
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("blocked receive gave up after %v, want the 20ms timeout", waited)
	}
}
