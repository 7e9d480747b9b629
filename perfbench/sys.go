package main

import (
	"runtime"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// window brackets one timed phase: wall clock, process CPU, and the
// runtime's cumulative allocation and GC counters.
type window struct {
	start  time.Time
	at     int64 // start in nanoseconds since epoch
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	wall   time.Duration
	cpuUse time.Duration
	allocd uint64
	gcDone uint32
}

func openWindow() *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &window{start: time.Now(), at: nowNS(), cpu: processCPU(), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func (w *window) close() {
	w.wall = time.Since(w.start)
	w.cpuUse = processCPU() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocd = ms.TotalAlloc - w.alloc
	w.gcDone = ms.NumGC - w.gcs
}
