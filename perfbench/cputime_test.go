package main

import (
	"testing"
	"time"
)

// TestProcessCPU checks that the CPU clock advances with work and stands
// still while the process sleeps: the bounded metrics rest on both.
func TestProcessCPU(t *testing.T) {
	c0, t0 := processCPU(), time.Now()
	time.Sleep(100 * time.Millisecond)
	if slept := processCPU() - c0; slept > 50*time.Millisecond {
		t.Errorf("sleeping %v took %v of CPU time", time.Since(t0), slept)
	}
	c0 = processCPU()
	x := 1.0
	for t1 := time.Now(); time.Since(t1) < 100*time.Millisecond; {
		x = x*1.0000001 + 1e-9
	}
	if spun := processCPU() - c0; spun < 20*time.Millisecond {
		t.Errorf("spinning 100ms took %v of CPU time (x=%g)", spun, x)
	}
}
