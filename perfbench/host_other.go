//go:build !linux

package main

import "time"

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

var processStart = time.Now()

// cpuTime stands in for the process CPU time with the wall time since
// start where getrusage(2) is not used.
func cpuTime() float64 { return time.Since(processStart).Seconds() }
