package main

import (
	"context"
	"math/bits"
	"time"
)

// latHist is a log-linear latency histogram: 256 buckets per power of two
// of nanoseconds, so a quantile is within 0.4% of the exact value. Its
// memory is fixed however many ops a run makes, so the benchmark's own
// bookkeeping does not grow the process's resident set with throughput.
type latHist struct {
	counts []uint32
	n      int64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	histBuckets = 30 * histSub // up to 2^37 ns, about two minutes
)

func newHist() latHist { return latHist{counts: make([]uint32, histBuckets)} }

func histBucket(ns int64) int {
	if ns < 2*histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - histSubBits - 1
	b := e*histSub + int(ns>>e)
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// histValue is the midpoint of bucket b, in nanoseconds.
func histValue(b int) float64 {
	if b < 2*histSub {
		return float64(b)
	}
	e := b/histSub - 1
	m := b - e*histSub
	return float64(int64(m)<<e) + float64(int64(1)<<e)/2
}

func (h *latHist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile in microseconds; 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += int64(c)
		if seen >= rank {
			return histValue(b) / 1e3
		}
	}
	return histValue(histBuckets-1) / 1e3
}

// window is one slice of a measured phase, about windowWidth long.
type window struct {
	width time.Duration
	ops   int64   // ops of any kind completed in the window
	main  latHist // latencies of the workload's main ops
}

// phase is the outcome of driving a rig for a fixed time.
type phase struct {
	windows   []window
	writes    latHist
	attempted int64
	failed    int64
}

// windowWidth is the length a measured phase is cut into: short enough
// that a run has dozens of windows, long enough that each holds hundreds
// of ops, so its p90 has dozens of samples above it.
const windowWidth = 500 * time.Millisecond

// windowsOf is how many windows a phase of length d has, and their width.
func windowsOf(d time.Duration) (int, time.Duration) {
	n := max(1, int(d/windowWidth))
	return n, d / time.Duration(n)
}

func newPhase(d time.Duration) phase {
	n, width := windowsOf(d)
	p := phase{writes: newHist()}
	for i := 0; i < n; i++ {
		p.windows = append(p.windows, window{width: width, main: newHist()})
	}
	return p
}

// drive runs one closed-loop client on r until d has passed. An op that
// ends after d counts as attempted but falls in no window.
func drive(r rig, d time.Duration) phase {
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(d)
	p := newPhase(d)
	for time.Now().Before(deadline) {
		kind, lat, ok := r.step(ctx)
		p.attempted++
		if !ok {
			p.failed++
		}
		if kind == kindWrite {
			p.writes.add(lat)
		}
		if i := int(time.Since(start) / p.windows[0].width); i < len(p.windows) {
			w := &p.windows[i]
			w.ops++
			if kind == kindMain {
				w.main.add(lat)
			}
		}
	}
	return p
}

// join appends q's windows to p's, as if q ran right after p.
func (p phase) join(q phase) phase {
	if p.windows == nil {
		return q
	}
	p.windows = append(p.windows, q.windows...)
	p.writes.merge(&q.writes)
	p.attempted += q.attempted
	p.failed += q.failed
	return p
}

func (p phase) count(res *result) {
	res.Attempted += p.attempted
	res.Failed += p.failed
}

// summary reports the median over a phase's windows of each window's rate
// and latency quantiles, so windows a neighbour on the machine disturbed
// do not move the figure.
type summary struct {
	opsPerS, p50, p90, p99, writeP50 float64
	mainOps                          int64
}

func (p phase) summary() summary {
	var s summary
	var rates, p50s, p90s, p99s []float64
	for i := range p.windows {
		w := &p.windows[i]
		rates = append(rates, float64(w.ops)/w.width.Seconds())
		if w.main.n > 0 {
			p50s = append(p50s, w.main.quantile(0.50))
			p90s = append(p90s, w.main.quantile(0.90))
			p99s = append(p99s, w.main.quantile(0.99))
			s.mainOps += w.main.n
		}
	}
	s.opsPerS, s.p50, s.p90, s.p99 = median(rates), median(p50s), median(p90s), median(p99s)
	s.writeP50 = p.writes.quantile(0.50)
	return s
}
