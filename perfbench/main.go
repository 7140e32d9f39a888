// Command perfbench is the repository benchmark: it serves the paper's
// count-query workload through the real serving stack on loopback HTTP,
// checks every answer against the in-process engine, and prints each
// metric by name with its unit.
//
//	go run . --workload census-binary --seed 1 --seconds 50 --trace 0
//
// Workloads: census-binary, census-json and adult-ingest-fleet, or all to
// run the three in turn (see README.md for what each one stresses and which
// layer metric should move which end-to-end metric). With --trace 0 the run reports end-to-end
// metrics; with --trace 1 it replays the same inputs through each layer's
// public functions under spans and reports per-layer metrics instead.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is a report
// stamped with the toolchain, machine and commit, which also gives the
// sample count behind every percentile. Both, and the span log of a traced
// run, are written under .bench_build/reports in the working directory.
// The command exits 1 when any answer or end-of-run check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// outDir is where reports and span logs go, relative to the working
// directory.
const outDir = ".bench_build/reports"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run hands back to main.
type outcome struct {
	ops      tally
	metrics  map[string]metric
	samples  map[string]int // sample count behind each timing metric
	segments map[string]int // segments behind each tail estimate
	// spanSelfMS is, for a traced run, the median self time of every span
	// name: its duration minus what its child spans cover.
	spanSelfMS map[string]float64
	checks     int      // end-of-run checks made
	failures   []string // end-of-run checks failed
	notes      []string // findings worth reading that fail nothing
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string]int{}, segments: map[string]int{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// check records one end-of-run check.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// endToEnd and perLayer name the metrics of the result line of an untraced
// and a traced run, in the order BENCHMARK.json lists them. The report line
// carries these and every other metric a run measured.
var (
	endToEnd = []string{"setup_s", "query_cost", "reconstruct_cost", "insert_cost", "heap_live_mib"}
	perLayer = []string{"http.self_ms", "serve.handler_ms", "wire.decode_us", "wire.encode_us",
		"json.decode_ms", "json.encode_ms", "serve.resolve_us", "budget.charge_us",
		"query.answer_batch_ms", "reconstruct.batch_ms", "serve.handler_self_ms",
		"serve.binary_overhead_ratio", "fleet.self_query_ms", "fleet.self_insert_ms",
		"wire.insert_decode_us", "datagen.census_ms", "chimerge.analyze_ms", "dataset.groups_ms",
		"core.sps_ms", "query.build_marginals_ms", "reconstruct.new_engine_ms", "serve.publish_ms",
		"fleet.publish_ms", "wire.request_bytes", "wire.response_bytes", "json.request_bytes",
		"json.response_bytes", "fleet.checkpoints", "fleet.retries", "fleet.failovers",
		"fleet.verified", "fleet.attempts_per_request", "serve.ingest_appends", "serve.compactions",
		"runtime.alloc_bytes_per_batch", "runtime.gc_cycles", "trace.overhead_pct", "ops_failed_frac"}
)

var workloads = map[string]func(options) (*outcome, error){
	"census-binary":      func(o options) (*outcome, error) { return runCensus(o, true) },
	"census-json":        func(o options) (*outcome, error) { return runCensus(o, false) },
	"adult-ingest-fleet": runIngest,
}

// stamp identifies the toolchain, machine, commit and run parameters a
// result was measured with.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"commit_modified"`
	// StealPct is the share of CPU time the hypervisor took from this
	// machine while the run lasted: figures from a run with much of it are
	// not comparable with one without.
	StealPct float64 `json:"cpu_steal_pct"`
}

func newStamp(o options) stamp {
	s := stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

// cpuTimes reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are 0 where there is none.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is the stamped line printed before the result.
type report struct {
	Stamp         stamp              `json:"stamp"`
	Samples       map[string]int     `json:"samples"`
	Segments      map[string]int     `json:"tail_segments"`
	SpanSelfMS    map[string]float64 `json:"span_self_ms,omitempty"`
	OpsFailedFrac float64            `json:"ops_failed_frac"`
	Errors        []string           `json:"errors,omitempty"`
	Notes         []string           `json:"notes,omitempty"`
	Metrics       map[string]metric  `json:"metrics"`
}

// procs is the GOMAXPROCS of every run. The timed metrics are process CPU
// time, and with a second P the runtime spends CPU time spinning in search
// of work whenever a goroutine wakes, an amount that depends on what else
// the machine runs; with one P the CPU time is the work itself.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 50, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the inputs layer by layer under spans and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	_, known := workloads[names[0]]
	if !known || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all, %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	code := 0
	for _, name := range names {
		o.workload = name
		code = max(code, runOne(o))
	}
	os.Exit(code)
}

// runOne runs one workload, prints its report and result lines and
// returns the exit code: 0 when correct, 1 when a check failed, 2 when the
// run could not be set up.
func runOne(o options) int {
	steal0, total0 := cpuTimes()
	out, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	steal1, total1 := cpuTimes()
	names := endToEnd
	if o.trace {
		names = perLayer
	}

	attempted := out.ops.attempted + int64(out.checks)
	failed := out.ops.failed + int64(len(out.failures))
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	out.set("ops_failed_frac", "failed/attempted", frac)
	res := result{Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := out.metrics[n]
		attempted++
		if !ok {
			failed++
			out.failures = append(out.failures, "metric "+n+" was not measured")
			continue
		}
		res.Metrics[n] = m
	}
	res.Attempted, res.Failed = attempted, failed
	res.Correct = failed == 0
	st := newStamp(o)
	if total1 > total0 {
		st.StealPct = float64(steal1-steal0) / float64(total1-total0) * 100
	}
	rep := report{
		Stamp: st, Samples: out.samples, Segments: out.segments, SpanSelfMS: out.spanSelfMS, OpsFailedFrac: frac,
		Errors: append(append([]string(nil), out.ops.errs...), out.failures...), Notes: out.notes, Metrics: out.metrics,
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(os.Stderr, "perfbench: note:", n)
	}
	repLine, err := json.Marshal(map[string]any{"report": rep})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := writeFile(filepath.Join(outDir, name), append(append(repLine, '\n'), resLine...)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	fmt.Println(string(repLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
