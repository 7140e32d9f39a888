package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkFileMatches pins the metric lists the command prints to the
// ones BENCHMARK.json declares, in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", got, perLayer)
	}
	// BENCHMARK.json lists every workload but adult-ingest-fleet, which
	// fails its verify_mismatches gate while the router's verification
	// races the insert fan-out (README.md).
	want := slices.DeleteFunc(workloadNames(), func(n string) bool { return n == "adult-ingest-fleet" })
	got := names(spec.Workloads)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, want)
	}
}
