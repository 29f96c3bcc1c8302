package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the open-loop sender on a periodic kernel timer. A
// timerfd read parks the goroutine in the network poller, which wakes
// it when the timer fires: time.Sleep instead rounds sub-millisecond
// waits up to whole milliseconds whenever the process is otherwise
// idle, which put the sender half a tick late on average.
type pacer struct {
	f   *os.File
	buf [8]byte
}

// newPacer starts a timer that fires at first and every period after.
func newPacer(first time.Time, period time.Duration) (*pacer, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = syscall.O_NONBLOCK
		tfdCloexec     = syscall.O_CLOEXEC
		tfdAbstime     = 1
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	var now syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&now)), 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("clock_gettime: %w", errno)
	}
	spec := struct{ interval, value syscall.Timespec }{
		interval: syscall.NsecToTimespec(int64(period)),
		value:    syscall.NsecToTimespec(now.Nano() + int64(time.Until(first))),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, tfdAbstime, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the timer's next expiry.
func (p *pacer) wait() error {
	// The read returns the expiration count, which the sender does not
	// need: it compares the clock with each event's due time itself.
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }
