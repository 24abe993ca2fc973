package main

import (
	"syscall"
	"time"
)

// sleepPrecise sleeps for d in a nanosleep system call. The Go timer
// wakes an idle process on a millisecond tick, which at edge-small's
// rates is most of a request's latency; nanosleep wakes within tens of
// microseconds and, unlike spinning, leaves both CPUs to the system.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the caller re-checks the clock
}
