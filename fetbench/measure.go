package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified). It returns 0 for an empty
// sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss
// is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// region measures one timed region: wall and CPU time.
type region struct {
	start time.Time
	cpu   time.Duration
}

func begin() region { return region{start: time.Now(), cpu: cpuTime()} }

// end returns the region's wall and CPU seconds.
func (s region) end() (wall, cpu float64) {
	return time.Since(s.start).Seconds(), (cpuTime() - s.cpu).Seconds()
}

// timeEach runs f reps times and returns the median duration per call
// in nanoseconds divided by per (the operations one call performs).
func timeEach(reps int, per float64, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t).Nanoseconds()) / per
	}
	return median(ds)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
