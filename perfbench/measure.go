package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// tail percentile: fewer and the value is one or two outliers, not a
// percentile.
const minTail = 10

// tailPercentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule. It refuses when fewer than minTail samples lie
// beyond it, so a p99 needs at least 1000 samples.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the middle two for an
// even count). Unlike tailPercentile it accepts any non-empty sample:
// the median of a run's few repetitions is the run's figure.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuSeconds returns the user+system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeStats is a reading of the Go allocator and collector.
type runtimeStats struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return math.NaN()
	}
	return runtimeStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (r runtimeStats) sub(prev runtimeStats) runtimeStats {
	return runtimeStats{r.allocBytes - prev.allocBytes, r.gcCycles - prev.gcCycles, r.gcCPU - prev.gcCPU}
}

// repeatFor reports whether another repetition of roughly last's
// length should start at elapsed: it does when the run would then end
// nearer the budget than stopping now.
func repeatFor(elapsed, last, budget time.Duration) bool {
	return elapsed+last/2 < budget
}
