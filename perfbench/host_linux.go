package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. It sleeps in nanosleep(2) on its own
// thread rather than in time.Sleep, whose wake-ups the runtime's
// network poller rounds up to the millisecond when the process is idle:
// an open-loop generator sending a request every few hundred
// microseconds would otherwise run late by most of a millisecond.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps again
	}
}

// cpuTime is the CPU time the process has used, user and system, in
// seconds. Time the host gave to other tenants or to other processes
// is not in it, so rates per CPU second hold steady on a shared host.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
