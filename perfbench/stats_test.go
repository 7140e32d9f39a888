package main

import (
	"math"
	"testing"
	"time"
)

func TestRankAndBeyond(t *testing.T) {
	for _, c := range []struct {
		q            float64
		n, idx, left int
	}{
		{0.5, 1, 0, 0},
		{0.5, 10, 4, 5},
		{0.99, 1000, 989, 10},
		{0.99, 999, 989, 9},
		{0.90, 100, 89, 10},
	} {
		if got := rankIndex(c.q, c.n); got != c.idx {
			t.Errorf("rankIndex(%g, %d) = %d, want %d", c.q, c.n, got, c.idx)
		}
		if got := beyond(c.q, c.n); got != c.left {
			t.Errorf("beyond(%g, %d) = %d, want %d", c.q, c.n, got, c.left)
		}
	}
}

// ramp returns n samples 1..n, so every quantile is easy to predict.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailEstimateIsMedianOfSegments(t *testing.T) {
	// Five segments of 1,000 samples, each a ramp shifted by a segment
	// offset; one segment carries a huge stall. The median of the five
	// per-segment p99s ignores the stall.
	var xs []float64
	offsets := []float64{0, 10, 20, 30, 40}
	for s, off := range offsets {
		seg := ramp(1000)
		for i := range seg {
			seg[i] += off
		}
		if s == 1 {
			seg[500] = 1e9
		}
		xs = append(xs, seg...)
	}
	v, segs, err := tailEstimate(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if segs != maxSegments {
		t.Fatalf("segments = %d, want %d", segs, maxSegments)
	}
	// Segment p99s are 990+off (the stalled one moves by one rank);
	// their median is segment 2's, 990+20.
	if v != 1010 {
		t.Fatalf("tail = %v, want 1010", v)
	}
}

func TestTailEstimateUsesFewerSegmentsWhenShort(t *testing.T) {
	// 2,500 samples hold two segments of 1,250 with at least ten samples
	// beyond the p99, but not three of 833.
	_, segs, err := tailEstimate(ramp(2500), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if segs != 2 {
		t.Fatalf("segments = %d, want 2", segs)
	}
}

func TestTailEstimateGuard(t *testing.T) {
	// 1,000 samples leave exactly ten beyond the p99: allowed as one
	// segment. 999 leave nine: refused.
	if _, segs, err := tailEstimate(ramp(1000), 0.99); err != nil || segs != 1 {
		t.Fatalf("1000 samples: segments %d, err %v", segs, err)
	}
	if _, _, err := tailEstimate(ramp(999), 0.99); err == nil {
		t.Fatal("999 samples: p99 accepted with nine samples beyond it")
	}
	if _, _, err := tailEstimate(nil, 0.9); err == nil {
		t.Fatal("no samples: tail accepted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := median(nil); got != 0 || math.IsNaN(got) {
		t.Fatalf("median of nothing = %v", got)
	}
}

// cpuSamples returns one sample per CPU time in milliseconds.
func cpuSamples(ms ...float64) latencies {
	l := make(latencies, len(ms))
	for i, x := range ms {
		l[i] = sample{cpu: time.Duration(x * float64(time.Millisecond))}
	}
	return l
}

func TestCostIsCPUQuantileInReferenceUnits(t *testing.T) {
	out := newOutcome()
	var ops []float64
	for i := 1; i <= 100; i++ {
		ops = append(ops, float64(i)) // 5th percentile 5 ms
	}
	latencyMetrics(out, "query", cpuSamples(ops...))
	ref := &refKernel{units: cpuSamples(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9)}
	costMetrics(out, ref, "query")
	if got := out.metrics["query_cpu_p5_ms"].Value; math.Abs(got-5) > 1e-9 {
		t.Errorf("query_cpu_p5_ms = %g, want 5", got)
	}
	if got := out.metrics["query_cost"].Value; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("query_cost = %g, want 5 ms / 2 ms", got)
	}
	if len(out.failures) != 0 {
		t.Errorf("failures: %v", out.failures)
	}

	// No reference unit, or a failed one, fails the run.
	out = newOutcome()
	costMetrics(out, &refKernel{}, "query")
	if len(out.failures) == 0 {
		t.Error("a run without reference units passed")
	}
}

func TestReferenceUnit(t *testing.T) {
	k := newRefKernel()
	defer k.close()
	k.unit()
	k.unit()
	if k.err != nil || len(k.units) != 2 || k.units[0].cpu <= 0 {
		t.Fatalf("two units gave %v, err %v", k.units, k.err)
	}
}
