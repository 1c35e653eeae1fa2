package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// section is one timed stretch of work: wall time and the heap activity the
// Go runtime booked during it.
type section struct {
	wall    time.Duration
	mallocs uint64
	bytes   uint64
}

// timeSection runs fn between two MemStats readings. A collection beforehand
// puts every repetition on the same footing (no debt inherited from the
// previous one).
func timeSection(fn func()) section {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return section{
		wall:    wall,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
	}
}

// opCost is a layer replay's result: cost per operation.
type opCost struct {
	ns, allocs, bytes float64
}

// timeOps times fn, which performs ops operations, and returns per-op costs.
func timeOps(ops int, fn func()) opCost {
	s := timeSection(fn)
	if ops <= 0 {
		return opCost{}
	}
	n := float64(ops)
	return opCost{
		ns:     float64(s.wall.Nanoseconds()) / n,
		allocs: float64(s.mallocs) / n,
		bytes:  float64(s.bytes) / n,
	}
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durationsUS converts durations to microseconds.
func durationsUS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x.Nanoseconds()) / 1e3
	}
	return out
}

// peakMemMB reads the process's resident-set high-water mark (VmHWM), falling
// back to the Go runtime's view of memory obtained from the OS.
func peakMemMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
