package streamclient

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// stalledServer accepts connections on loopback and never reads from
// them, so a client's writes stall once the (shrunk) socket buffers
// fill. It returns the address and a dial function that shrinks the
// client's send buffer the same way.
func stalledServer(t *testing.T) (string, func(network, addr string) (net.Conn, error)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.(*net.TCPConn).SetReadBuffer(4096)
			t.Cleanup(func() { c.Close() })
		}
	}()
	dial := func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err == nil {
			c.(*net.TCPConn).SetWriteBuffer(4096)
		}
		return c, err
	}
	return ln.Addr().String(), dial
}

// sendUntilStalled runs send in a loop on its own goroutine until it
// fails, and returns once the loop has made no progress for 200ms —
// the sender is parked mid-write — plus a channel closed when the loop
// exits.
func sendUntilStalled(t *testing.T, send func() error) <-chan struct{} {
	t.Helper()
	var sent atomic.Int64
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for send() == nil {
			sent.Add(1)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		time.Sleep(200 * time.Millisecond)
		n := sent.Load()
		if n == last {
			return exited
		}
		last = n
		if time.Now().After(deadline) {
			t.Fatal("sender never stalled against a server that does not read")
		}
	}
}

// closeWithin runs closeFn on its own goroutine and fails the test if
// it has not returned within 5s.
func closeWithin(t *testing.T, what string, closeFn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		closeFn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s hung behind a sender parked mid-write", what)
	}
}

// TestConnCloseUnblocksParkedSender pins that Conn.Close never waits
// for the send lock: a sender parked in a write (the server stopped
// reading) holds that lock until the write fails, and only closing the
// socket makes it fail.
func TestConnCloseUnblocksParkedSender(t *testing.T) {
	addr, dial := stalledServer(t)
	c, err := DialWith(addr, DialOptions{Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	exited := sendUntilStalled(t, func() error {
		return c.Send(Event{Tenant: 1, Type: "offer", Stream: 3})
	})
	closeWithin(t, "Conn.Close", func() { c.Close() })
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("parked sender did not fail after Close")
	}
}

// TestSessionCloseUnblocksParkedSender pins the same for Session.Close:
// a Send holds the session lock across its write, so Close must close
// the socket before taking the lock, and the failed write must not
// redial a session that is closing.
func TestSessionCloseUnblocksParkedSender(t *testing.T) {
	addr, dial := stalledServer(t)
	s, err := NewSession(addr, SessionOptions{ID: "close-test", Window: 1 << 20, Dial: dial})
	if err != nil {
		t.Fatal(err)
	}
	exited := sendUntilStalled(t, func() error {
		return s.Send(Event{Tenant: 1, Type: "offer", Stream: 3})
	})
	closeWithin(t, "Session.Close", func() { s.Close() })
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("parked sender did not fail after Close")
	}
}
