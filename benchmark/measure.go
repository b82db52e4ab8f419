package main

import (
	"runtime"
	"syscall"
	"time"
)

var epoch = time.Now()

// nowNs is the benchmark's clock: monotonic nanoseconds since start.
func nowNs() int64 { return int64(time.Since(epoch)) }

// procSnap is the process-wide state read at both ends of a window.
type procSnap struct {
	wallNs     int64
	cpuNs      int64 // user + system, whole process
	mallocs    uint64
	gcCycles   uint32
	gcPauseNs  uint64
	heapInuse  uint64
	goroutines int
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSnap{
		wallNs:     nowNs(),
		cpuNs:      syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime),
		mallocs:    ms.Mallocs,
		gcCycles:   ms.NumGC,
		gcPauseNs:  ms.PauseTotalNs,
		heapInuse:  ms.HeapInuse,
		goroutines: runtime.NumGoroutine(),
	}
}

// allocsPer runs f (which does n operations) and returns heap
// allocations per operation, whole process.
func allocsPer(f func() (n int)) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	n := f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
