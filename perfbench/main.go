// Command perfbench is the repository's benchmark: one binary that runs a
// named workload through the public APIs of the Camus compiler, control
// plane, pipeline and software data plane, checks every output against a
// reference computed apart from the program, and prints the result as one
// JSON line.
//
//	perfbench --workload itch-fanout --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, a per-layer self-time table goes to
// standard error and the spans are written as JSON lines under
// .bench_build/trace/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	_ "unsafe" // for go:linkname
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the user-visible metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"msgs_per_s", "msg/s"},
	{"churn_localized_ms", "ms"},
	{"churn_uniform_ms", "ms"},
}

// perLayer lists the single-layer metrics every traced run reports. A
// layer that does no work on a workload reports 0 (see README.md).
var perLayer = []metricDef{
	{"dataplane.lane_ns_per_dgram", "ns"},
	{"dataplane.egress_ns_per_dgram", "ns"},
	{"dataplane.frame_ns_per_dgram", "ns"},
	{"dataplane.writes_per_dgram", "count"},
	{"dataplane.group_encodes_per_dgram", "count"},
	{"dataplane.group_sends_per_dgram", "count"},
	{"dataplane.allocs_per_dgram", "count"},
	{"dataplane.queue_us_p50", "us"},
	{"dataplane.queue_us_p99", "us"},
	{"dataplane.service_us_p50", "us"},
	{"dataplane.lane_imbalance", "ratio"},
	{"dataplane.churn_stall_us_max", "us"},
	{"core.ns_per_dgram", "ns"},
	{"itch.decode_ns_per_msg", "ns"},
	{"pipeline.match_ns_per_msg", "ns"},
	{"pipeline.table_entries", "count"},
	{"pipeline.ports_per_msg", "count"},
	{"pipeline.state_ns_per_pkt", "ns"},
	{"pipeline.state_update_ns", "ns"},
	{"pipeline.state_read_ns", "ns"},
	{"pipeline.state_cells", "count"},
	{"pipeline.state_evict_expired", "count"},
	{"compiler.bdd_nodes", "count"},
	{"compiler.groups", "count"},
	{"compiler.compile_ms", "ms"},
	{"lang.parse_ms", "ms"},
	{"controlplane.install_ms", "ms"},
	{"controlplane.delta_writes", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is one workload run's outcome. Problems are correctness
// failures: any makes the run incorrect.
type report struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
	info      []string // human-readable shape lines for standard error
	tracer    *tracer
}

func newReport(trace bool) *report {
	r := &report{metrics: make(map[string]float64)}
	if trace {
		r.tracer = &tracer{}
	}
	return r
}

func (r *report) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig, *report) error{
	"itch-fanout":    func(c runConfig, r *report) error { return runITCH(fanoutShape, c, r) },
	"itch-selective": func(c runConfig, r *report) error { return runITCH(selectiveShape, c, r) },
	"churn-live":     func(c runConfig, r *report) error { return runITCH(churnShape, c, r) },
	"ddos-keyed":     runDDoS,
}

func main() {
	name := flag.String("workload", "", "workload to run: itch-fanout, itch-selective, ddos-keyed, churn-live")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics and spans)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport(cfg.trace)
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	fmt.Fprintf(os.Stderr, "workload %s seed %d: cpus=%d GOMAXPROCS=%d %s\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range rep.info {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "  CHECK FAILED: "+p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		var traced []string
		for _, d := range endToEnd {
			traced = append(traced, fmt.Sprintf("%s=%.4g", d.name, rep.metrics[d.name]))
		}
		fmt.Fprintf(os.Stderr, "  end-to-end under tracing (compare an untraced run for the overhead): %s\n", strings.Join(traced, " "))
		rep.tracer.printSelfTimes(os.Stderr, *name)
		path := fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", *name, *seed)
		if err := rep.tracer.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "  spans: %d written to %s\n", len(rep.tracer.spans), path)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]map[string]any, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
		}
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: metrics not measured: %s\n", strings.Join(missing, ", "))
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// nanotime is the runtime's monotonic clock in nanoseconds: one vDSO
// read, about half the cost of time.Now, which reads the wall clock too.
// The in-memory Conn stamps every egress frame with it.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
