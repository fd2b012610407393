package main

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the value is one or two outliers.
const minBeyond = 10

// percentile returns the p-th percentile of xs (linear interpolation
// between order statistics). It refuses when fewer than minBeyond
// samples lie beyond the percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if beyond := float64(n) * (100 - p) / 100; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %.1f", p, minBeyond, n, math.Max(0, float64(n)*(100-p)/100))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return s[n-1], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// procSnap is a point-in-time reading of the process counters the
// end-to-end and runtime metrics are derived from.
type procSnap struct {
	cpu        time.Duration // user+sys CPU of the whole process
	allocBytes uint64        // cumulative Go heap bytes allocated
	gcCPU      float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64       // cumulative total CPU seconds (runtime estimate)
	gcCycles   uint64
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	samples := make([]rtmetrics.Sample, len(procMetrics))
	for i, n := range procMetrics {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	return procSnap{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: samples[0].Value.Uint64(),
		gcCPU:      samples[1].Value.Float64(),
		totalCPU:   samples[2].Value.Float64(),
		gcCycles:   samples[3].Value.Uint64(),
	}
}

// sub returns the counters accumulated between snapshot b and a.
func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedOp reports whether op i of a traced run is traced. Ops
// alternate, so op pairs (2j, 2j+1) have one of each; the phase flips
// every 64 ops so that no input recurring with an even period always
// lands on the same side.
func tracedOp(i int) bool { return (i+i/64)%2 == 1 }

// closedLoop runs op back to back with one client until the deadline.
// In a traced run half the ops are traced (see tracedOp), so the two
// halves measure the tracing overhead. op returns the latency it
// measured in ms and reports failures on w.
func closedLoop(deadline time.Time, tr *tracer, op func(i int, tr *tracer, w *window) float64) *window {
	w := &window{}
	first := readProc()
	prev, start := first, time.Now()
	edges := blockEdges(start, deadline)
	var cur block
	for i := 0; len(w.blocks) < windowBlocks; i++ {
		var t *tracer
		if tr != nil && tracedOp(i) {
			t = tr
		}
		w.attempted++
		lat := op(i, t, w)
		w.lat = append(w.lat, lat)
		w.traced = append(w.traced, t != nil)
		cur.lat = append(cur.lat, lat)
		if now := time.Now(); !now.Before(edges[len(w.blocks)]) {
			p := readProc()
			cur.busy, cur.proc = now.Sub(start), p.sub(prev)
			w.blocks = append(w.blocks, cur)
			cur, prev, start = block{}, p, now
		}
	}
	w.proc = prev.sub(first)
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
