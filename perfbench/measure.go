package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method; xs is sorted in place.  NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// us converts durations to microseconds.
func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the live Go heap: the bytes the garbage collector found
// reachable at the end of its latest cycle.  Unlike the heap in use, it
// does not swing with GC pacing.
func liveHeap() uint64 {
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return m[0].Value.Uint64()
}

// mallocs is the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// host describes the machine a result was measured on.
type host struct {
	nproc, gomaxprocs int
	goVersion         string
	// sleep100us and sleep1ms are the median measured durations of
	// time.Sleep(100µs) and time.Sleep(1ms): the timer floor under every
	// emulated delay.
	sleep100us, sleep1ms float64
}

func probeHost() host {
	return host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		sleep100us: sleepP50(100 * time.Microsecond),
		sleep1ms:   sleepP50(time.Millisecond),
	}
}

func sleepP50(d time.Duration) float64 {
	xs := make([]float64, 21)
	for i := range xs {
		t := time.Now()
		time.Sleep(d)
		xs[i] = float64(time.Since(t)) / 1e3
	}
	return median(xs)
}
