package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// watchdogExit is the exit code of a phase that overran its deadline.
const watchdogExit = 3

// watch arms a deadline for one phase of the run. If the returned stop
// func is not called before limit passes, the process dumps every
// goroutine's stack to standard error and exits with watchdogExit
// without printing a result: a benchmark that hangs fails loudly
// instead of stalling whoever runs it.
func watch(phase string, limit time.Duration) (stop func()) {
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: phase %q exceeded its %v watchdog; goroutines:\n", phase, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(watchdogExit)
	})
	return func() { t.Stop() }
}
