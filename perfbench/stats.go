package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer samples above it is one outlier.
const tailBeyond = 10

// tail is the highest percentile that still has tailBeyond samples
// beyond it, with the sample count it was taken from.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// tailOf returns the highest percentile of xs with at least tailBeyond
// samples strictly above its rank.  With too few samples for any such
// percentile it falls back to the maximum (Percentile 100).  xs is
// sorted in place.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	sort.Float64s(xs)
	if n <= tailBeyond {
		return tail{Value: xs[n-1], Percentile: 100, Samples: n}
	}
	i := n - tailBeyond - 1
	return tail{Value: xs[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n}
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.  xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianOfMedians is the median over groups of each group's median.
func medianOfMedians(groups [][]float64) float64 {
	var ms []float64
	for _, g := range groups {
		if len(g) > 0 {
			ms = append(ms, median(append([]float64(nil), g...)))
		}
	}
	return median(ms)
}

func concat(groups [][]float64) []float64 {
	var out []float64
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gapOf is cost − ⌈lb⌉, the part of a cost its bound does not certify.
func gapOf(cost int, lb float64) int { return cost - int(math.Ceil(lb-1e-9)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stealTicks reads the machine's cumulative steal time in clock ticks
// from /proc/stat: time the hypervisor ran something else while a
// virtual CPU of this machine had work.  It reads 0 where unavailable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// clockTick is the unit of /proc/stat times (USER_HZ is 100 on Linux).
const clockTick = 10 * time.Millisecond

// stealShare is the share of the machine's CPU time over d that steal
// ticks represent.
func stealShare(ticks int64, d time.Duration) float64 {
	return ratio(float64(ticks)*float64(clockTick), float64(d)*float64(runtime.NumCPU()))
}

// cpuNow is the CPU time this process has used so far, every thread,
// user and system, to the nanosecond.  The kernel counts a thread's
// CPU time only while it runs: time the hypervisor steals from the
// machine's virtual CPUs and time spent waiting for a CPU are not in
// it.  On a shared host these swing a wall-clock figure by a third
// from one run to the next; the CPU time of the same work moves little.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID on Linux.
const clockProcessCPUTime = 2
