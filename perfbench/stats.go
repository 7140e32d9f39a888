package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// maxSegments caps how many consecutive segments a tail estimate splits its
// window into.
const maxSegments = 5

// minBeyond is the fewest samples a reported percentile must have above it
// in every segment: a tail resting on fewer is decided by single outliers.
const minBeyond = 10

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie above the nearest-rank q quantile.
func beyond(q float64, n int) int { return n - 1 - rankIndex(q, n) }

// quantile returns the nearest-rank q quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(q, len(s))]
}

// median is the 0.5 quantile; it is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// tailEstimate is the median of per-segment q quantiles over the time-ordered
// samples, using as many equal consecutive segments (up to maxSegments) as
// leave at least minBeyond samples above the quantile in each. A systematic
// tail shows in every segment and survives the median; one stray stall
// lands in one segment and does not. It fails when even the whole window
// has fewer than minBeyond samples beyond q.
func tailEstimate(ordered []float64, q float64) (value float64, segments int, err error) {
	for segs := maxSegments; segs >= 1; segs-- {
		per := len(ordered) / segs
		if per == 0 || beyond(q, per) < minBeyond {
			continue
		}
		vals := make([]float64, segs)
		for s := range vals {
			vals[s] = quantile(ordered[s*per:(s+1)*per], q)
		}
		return median(vals), segs, nil
	}
	return 0, 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d",
		q*100, minBeyond, len(ordered), beyond(q, len(ordered)))
}

// sample is one timed operation: when it completed, relative to the start
// of the window, how long it took, the CPU time the process spent meanwhile,
// and how many queries, sets or records it carried.
type sample struct {
	at, d, cpu time.Duration
	n          int
}

// latencies collects one operation kind's samples from several clients.
type latencies []sample

// orderedMS returns the durations in milliseconds, ordered by completion.
func (l latencies) orderedMS() []float64 {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.d) / float64(time.Millisecond)
	}
	return out
}

// cpuMS returns the CPU times in milliseconds.
func (l latencies) cpuMS() []float64 {
	out := make([]float64, len(l))
	for i, x := range l {
		out[i] = float64(x.cpu) / float64(time.Millisecond)
	}
	return out
}

// rateSlices is how many equal slices a window's throughput is measured over.
const rateSlices = 10

// sliceRate is the median over equal slices of the window of the work
// completed per second in each, so a burst of lost CPU in part of the
// window moves it less than the window's mean rate.
func sliceRate(l latencies, window time.Duration) float64 {
	width := window / rateSlices
	if width <= 0 {
		return 0
	}
	work := make([]float64, rateSlices)
	for _, s := range l {
		if i := int(s.at / width); i < rateSlices {
			work[i] += float64(s.n)
		}
	}
	for i := range work {
		work[i] /= width.Seconds()
	}
	return median(work)
}

// setupMetrics reports setup_s, the median process CPU time of the run's
// set-ups, and setup_wall_s, their median wall time.
func setupMetrics(out *outcome, c *setupClock) {
	out.set("setup_s", "s", median(c.cpu))
	out.set("setup_wall_s", "s", median(c.wall))
	out.samples["setup_s"] = len(c.cpu)
	out.samples["setup_wall_s"] = len(c.wall)
}

// costMetrics reports ref_cpu_p5_ms, the cpuQuantile of the reference
// units' CPU times, and for each operation kind <kind>_cost, its
// <kind>_cpu_p5_ms in units of that.
func costMetrics(out *outcome, ref *refKernel, kinds ...string) {
	out.check(ref.err == nil, "reference unit: %v", ref.err)
	out.samples["ref_cpu_p5_ms"] = len(ref.units)
	if len(ref.units) == 0 {
		out.check(false, "no reference units in the window")
		return
	}
	unit := quantile(ref.units.cpuMS(), cpuQuantile)
	out.set("ref_cpu_p5_ms", "ms", unit)
	for _, kind := range kinds {
		if m, ok := out.metrics[kind+"_cpu_p5_ms"]; ok {
			out.set(kind+"_cost", "ref", m.Value/unit)
		}
	}
}

// readMetrics derives the query and reconstruct metrics of a read window.
func readMetrics(out *outcome, t *tally, window time.Duration) {
	out.set("queries_per_s", "queries/s", sliceRate(t.q, window))
	latencyMetrics(out, "query", t.q, 0.90, 0.99)
	latencyMetrics(out, "reconstruct", t.r, 0.90)
}

// insertMetrics derives the insert metrics of a write window.
func insertMetrics(out *outcome, t *tally, window time.Duration) {
	out.set("insert_records_per_s", "records/s", sliceRate(t.ins, window))
	latencyMetrics(out, "insert", t.ins, 0.99)
}

// cpuQuantile is the quantile of per-operation CPU time that the bounded
// metrics report. The machines this runs on share their caches and cores
// with other tenants and alternate, for stretches of a tenth of a second to
// several seconds, between a fast state and one where the same batch takes
// about 40% more CPU time; the share of each varies from run to run. A
// median or a mean follows that share; the 5th percentile reads the fast
// state whenever a run has 5% of it.
const cpuQuantile = 0.05

// latencyMetrics reports <kind>_p50_ms over the pooled samples, each tail
// as the median of per-segment quantiles, and <kind>_cpu_p5_ms, the
// cpuQuantile of the per-operation CPU times.
func latencyMetrics(out *outcome, kind string, l latencies, tails ...float64) {
	ms := l.orderedMS()
	p50 := kind + "_p50_ms"
	out.samples[p50] = len(ms)
	if len(ms) == 0 {
		out.check(false, "no %s samples in the window", kind)
		return
	}
	out.set(p50, "ms", median(ms))
	cpu := kind + "_cpu_p5_ms"
	out.set(cpu, "ms", quantile(l.cpuMS(), cpuQuantile))
	out.samples[cpu] = len(ms)
	for _, q := range tails {
		name := fmt.Sprintf("%s_p%g_ms", kind, q*100)
		v, segs, err := tailEstimate(ms, q)
		if err != nil {
			// Too short a window for this tail: report the whole window's
			// quantile and say so, rather than fail a run whose answers
			// are all correct.
			v, segs = quantile(ms, q), 1
			out.notes = append(out.notes, fmt.Sprintf("%s: %v", name, err))
		}
		out.set(name, "ms", v)
		out.samples[name] = len(ms)
		out.segments[name] = segs
	}
}

// liveHeapMiB is the live heap after two forced GCs: the second also
// empties what sync.Pool caches keep through the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// targetHeapMiB is the live heap a target holds: the live heap after a
// forced GC with the target up, minus the same once tearDown has closed it
// and dropped every reference to it. What the benchmark holds itself (its
// inputs, references and samples) is live at both points and cancels; the
// caller keeps it alive until after the call.
func targetHeapMiB(tearDown func()) float64 {
	up := liveHeapMiB()
	tearDown()
	return up - liveHeapMiB()
}
