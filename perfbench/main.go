// Command perfbench is HyperProv's wall-clock benchmark. It drives the real
// in-process stack — the paper's 4-peer, one-org, solo-orderer network with
// every modeled device cost switched off — through one workload and prints
// one JSON line: the end-to-end metrics, or with --trace 1 the per-layer
// split. See README.md for the workloads, metrics and layer predictions.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//
// --workload all runs ingest, audit and catchup one after another, each in
// its own process so no run inherits another's memory peak or warm state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// env is one run's configuration.
type env struct {
	workload string
	seed     uint64
	window   time.Duration // the measured window (--seconds)
	traced   bool
	work     string // per-run scratch directory, removed at exit
	profile  string // CPU profile path for the traced run
}

type workloadFunc func(e *env, r *report) error

var workloads = map[string]workloadFunc{
	"ingest":  runIngest,
	"audit":   runAudit,
	"catchup": runCatchup,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: ingest, audit, catchup, or all")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		work:     work,
		profile:  filepath.Join(buildDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", *name, *seed)),
	}
	r := newReport(e)
	if err := wl(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	return r.emit()
}

// runAll runs every workload in a child process of this binary and fails
// if any of them does.
func runAll(seed uint64, seconds, trace int) int {
	code := 0
	for _, w := range []string{"ingest", "audit", "catchup"} {
		cmd := exec.Command(os.Args[0], "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

// metricDecl declares one reported metric.
type metricDecl struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports each
// for its own primary operation (README.md maps them per workload).
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer splits the end-to-end figures over the repository's layers. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDecl{
	{"gen.lag_p99_ms", "ms"},
	{"gen.inflight_max", "count"},
	{"client.write_p50_ms", "ms"},
	{"client.op_p99_ms", "ms"},
	{"offchain.put_ms", "ms"},
	{"offchain.get_ms", "ms"},
	{"gateway.propose_ms", "ms"},
	{"endorser.service_ms", "ms"},
	{"endorser.used_frac", "frac"},
	{"identity.deserialize_us", "us"},
	{"identity.verify_cache_hit_frac", "frac"},
	{"identity.sig_verifies_per_tx", "count"},
	{"orderer.wait_ms", "ms"},
	{"orderer.tx_per_block", "count"},
	{"committer.deliver_wait_ms", "ms"},
	{"committer.preval_ms", "ms"},
	{"committer.mvcc_wait_ms", "ms"},
	{"committer.mvcc_ms", "ms"},
	{"committer.persist_wait_ms", "ms"},
	{"committer.persist_ms", "ms"},
	{"committer.notify_ms", "ms"},
	{"committer.invalid_frac", "frac"},
	{"query.get_ms", "ms"},
	{"query.history_ms", "ms"},
	{"query.lineage_ms", "ms"},
	{"query.descendants_ms", "ms"},
	{"query.by_checksum_ms", "ms"},
	{"query.get_data_ms", "ms"},
	{"query.lineage_records", "count"},
	{"statedb.get_us", "us"},
	{"statedb.scan_us", "us"},
	{"blockstore.bytes_per_tx", "B"},
	{"recovery.checkpoint_bytes_per_tx", "B"},
	{"recovery.replayed_blocks", "count"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, sample counts and failed checks.
type report struct {
	e         *env
	values    map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64 // failed operations
	bad       int   // failed output checks
	problems  []string
}

func newReport(e *env) *report {
	return &report{e: e, values: make(map[string]float64), samples: make(map[string]int)}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail records a failed output check.
func (r *report) fail(format string, args ...any) {
	r.bad++
	r.note(format, args...)
}

// opFailed records a failed, refused, timed-out or invalidated operation.
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// note keeps the first few problem descriptions for the error output.
func (r *report) note(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// emit prints the run record and the result line, and returns the exit
// code: non-zero when any output check failed.
func (r *report) emit() int {
	decls := endToEnd
	if r.e.traced {
		decls = perLayer
	}
	out := make(map[string]metricOut, len(decls))
	counts := make(map[string]int, len(decls))
	for _, d := range decls {
		v, ok := r.values[d.name]
		if !ok && !r.e.traced {
			r.fail("metric %s was not measured", d.name)
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		counts[d.name] = r.samples[d.name]
	}
	info := map[string]any{
		"workload":   r.e.workload,
		"seed":       r.e.seed,
		"seconds":    r.e.window.Seconds(),
		"trace":      r.e.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"samples":    counts,
	}
	if r.e.traced {
		info["cpu_profile"] = r.e.profile
	}
	if b, err := json.Marshal(info); err == nil {
		fmt.Printf("# run %s\n", b)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.4f %-6s n=%d\n", n, out[n].Value, out[n].Unit, counts[n])
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	correct := r.bad == 0 && r.failed == 0
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed checks, %d failed operations\n", r.bad, r.failed)
		return 1
	}
	return 0
}
