package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

var base = time.Now()

// now is the monotonic time since the process started.
func now() time.Duration { return time.Since(base) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = slices.Clone(ds)
	slices.Sort(ds)
	return ds[(len(ds)-1)/2]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail is a latency distribution summarized the way the benchmark reports
// timings: the median and the highest of p99/p95/p90 that still has at
// least ten samples beyond it, with the sample count.
type tail struct {
	n        int
	p50, top float64 // in the unit of the samples
	topPct   float64 // the percentile top is
}

func summarize(samples []uint32) tail {
	if len(samples) == 0 {
		return tail{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	t := tail{n: len(s), p50: float64(s[rank(len(s), 500)-1]), topPct: 50}
	t.top = t.p50
	for _, pm := range []int{990, 950, 900} {
		if r := rank(len(s), pm); len(s)-r >= 10 {
			t.top, t.topPct = float64(s[r-1]), float64(pm)/10
			break
		}
	}
	return t
}

// rank is the 1-based nearest rank of the per-mille percentile pm among n
// samples.
func rank(n, pm int) int { return max((pm*n+999)/1000, 1) }

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is the process state at one instant: CPU, allocations, GC CPU.
type procSample struct {
	at     time.Duration
	cpu    time.Duration
	allocs uint64
	gcCPU  float64
	allCPU float64
}

var procMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	ms := slices.Clone(procMetrics)
	metrics.Read(ms)
	return procSample{at: now(), cpu: cpuTime(), allocs: ms[0].Value.Uint64(),
		gcCPU: ms[1].Value.Float64(), allCPU: ms[2].Value.Float64()}
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
