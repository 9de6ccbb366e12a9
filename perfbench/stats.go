package main

import (
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the middle two for an even
// count), sorting xs in place; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slicer counts completions in each one-second slice of a window, so a
// throughput can be reported as the median slice rate: a short stall (a GC
// pause, a burst of host contention) then moves one slice, not the result.
type slicer struct {
	start  time.Time
	counts []float64
}

func newSlicer(from, to time.Time) *slicer {
	return &slicer{start: from, counts: make([]float64, int(to.Sub(from)/time.Second))}
}

// add counts a completion at t; completions outside the window are ignored.
func (s *slicer) add(t time.Time) {
	if t.Before(s.start) {
		return
	}
	if i := int(t.Sub(s.start) / time.Second); i < len(s.counts) {
		s.counts[i]++
	}
}

// rate is the median completions per second over the window's slices.
func (s *slicer) rate() float64 { return median(append([]float64(nil), s.counts...)) }

// usage is a point-in-time reading of the process's CPU time and peak RSS.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss * 1024, // Linux reports kilobytes
	}
}
