// Command perfbench is the repository benchmark: it drives flor through the
// calls a user makes — record, local hindsight replay, and flord queries
// over HTTP — times each from outside, checks every output, and prints one
// JSON result line. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay-rsnt --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"flor.dev/flor/internal/workloads"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the gated end-to-end metrics, reported by every workload
// with tracing off; each workload defines its own main operation
// (README.md). cpu_ms is the process CPU time one main operation costs
// (per query, for a replay-cifr block of queries); setup_s is the process
// CPU time of the set-up. On the shared 2-vCPU host this benchmark was
// built on, wall-clock medians moved by 15-35% between runs minutes apart
// while CPU time moved by 4-16%, so wall-clock latency and throughput are
// printed by name but not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms", "ms"},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"backmat.blocked_s", "s"},
	{"backmat.snapshot_s", "s"},
	{"backmat.background_s", "s"},
	{"ckptfmt.encode_s", "s"},
	{"store.write_s", "s"},
	{"backmat.checkpoints", "count"},
	{"backmat.logical_mb", "MB"},
	{"store.stored_mb", "MB"},
	{"core.vanilla_s", "s"},
	{"core.open_ms", "ms"},
	{"skipblock.restore_ms", "ms"},
	{"skipblock.restored", "count"},
	{"skipblock.restore_mbps", "MB/s"},
	{"store.fetch.mmap_mb", "MB"},
	{"store.fetch.scatter_mb", "MB"},
	{"store.fetch.ranged_mb", "MB"},
	{"store.fetch.cache_mb", "MB"},
	{"replay.restore_amplification", "ratio"},
	{"replay.init_ms", "ms"},
	{"replay.work_ms", "ms"},
	{"skipblock.executed", "count"},
	{"sched.imbalance", "ratio"},
	{"sched.steals", "count"},
	{"serve.queue_ms", "ms"},
	{"sched.pool_wait_ms", "ms"},
	{"sched.pool_wait_frac", "ratio"},
	{"serve.handler_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"backmat.payload_hit_rate", "ratio"},
	{"serve.restore_ms", "ms"},
	{"cachetier.hit_rate", "ratio"},
	{"cachetier.miss_mb", "MB"},
	{"cachetier.evictions", "count"},
	{"cachetier.singleflight_mb", "MB"},
	{"store.fetch.remote_mb", "MB"},
	{"store.fetch.cache_tier_mb", "MB"},
	{"cachetier.read_amplification", "ratio"},
}

// workloadRunners maps workload names to the functions that run them.
var workloadRunners = map[string]func(*bench) error{
	"record":       runRecord,
	"replay-rsnt":  runReplayRsNt,
	"replay-cifr":  runReplayCifr,
	"flord-remote": runFlordRemote,
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    workloads.Scale // Full, or Smoke for the self-tests
	setups   int             // set-ups per run; setup_s is their median
	workDir  string          // scratch space, removed when the run ends
	traceDir string          // where traced runs write their spans
}

// infoMetric is a workload-specific figure printed for people (the JSON
// line carries the shared metrics only).
type infoMetric struct {
	Name  string
	Value float64
	Unit  string
}

// bench is the state of one run: configuration, outcome counting, and the
// figures the workload reports.
type bench struct {
	cfg        config
	out        io.Writer
	tr         *tracer
	setupS     []float64 // CPU seconds of each set-up
	setupWallS []float64 // wall seconds of each set-up, printed

	attempted int
	failures  []string

	e2e   map[string]float64
	info  []infoMetric
	layer map[string]float64
	notes []string // consistency-check violations and other findings

	tierChecked, tierSkipped int // queries checkTierSum compared with encoded sizes, or could not
}

func newBench(cfg config, out io.Writer) *bench {
	b := &bench{cfg: cfg, out: out, e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// attempt counts one checked operation; a non-nil err counts it failed.
func (b *bench) attempt(what string, err error) {
	b.attempted++
	if err != nil {
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// note records a finding that does not fail an operation (a consistency
// check violation in the traced run), printed with the report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) addInfo(name string, v float64, unit string) {
	b.info = append(b.info, infoMetric{name, v, unit})
}

// deadline returns the end of the timed section starting now.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
}

// setup runs fn cfg.setups times, recording the process CPU time each one
// took (setup_s is their median) and its wall time (printed); the timed
// section uses what the last one set up. CPU time, as for cpu_ms, because
// on a shared host wall time of the same set-up moved by a third between
// sets of runs; work moved into set-up shows either way.
func (b *bench) setup(fn func(i int) error) error {
	for i := 0; i < b.cfg.setups; i++ {
		t0, c0 := time.Now(), cpuTime()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		b.setupS = append(b.setupS, (cpuTime() - c0).Seconds())
		b.setupWallS = append(b.setupWallS, time.Since(t0).Seconds())
	}
	return nil
}

// setMain fills the end-to-end metrics from the main operation's CPU
// times (ms), and prints its wall-clock median and tail (ms) under the
// workload's own names and the operations completed per second of elapsed
// wall time.
func (b *bench) setMain(p50Name, tailName string, mainMs, cpuMs []float64, ops int, elapsed time.Duration) {
	b.e2e["cpu_ms"] = median(cpuMs)
	b.addLatency(p50Name, tailName, mainMs)
	b.addInfo("operations per second", float64(ops)/elapsed.Seconds(), "1/s")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// addLatency prints the median and tail of a latency sample (ms).
func (b *bench) addLatency(p50Name, tailName string, xs []float64) {
	b.addInfo(p50Name, median(xs), "ms")
	tl, p := tail(xs)
	b.addInfo(fmt.Sprintf("%s (p%d of %d)", tailName, p, len(xs)), tl, "ms")
}

// addTraceOverhead prints the tracing overhead of the traced run: the
// traced minus the untraced half's median and tail latency (ms).
func (b *bench) addTraceOverhead(traced, untraced []float64) {
	b.addInfo("trace overhead, p50 (traced - untraced)", median(traced)-median(untraced), "ms")
	tt, _ := tail(traced)
	tu, _ := tail(untraced)
	b.addInfo("trace overhead, tail (traced - untraced)", tt-tu, "ms")
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable report and returns the JSON result.
func (b *bench) finish() result {
	b.e2e["setup_s"] = median(b.setupS)
	w := b.out
	fmt.Fprintf(w, "set-ups: %d, CPU (s): %s, wall (s): %s\n", len(b.setupS), floats(b.setupS), floats(b.setupWallS))
	fmt.Fprintf(w, "workload metrics (%s):\n", b.cfg.workload)
	for _, m := range b.info {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	defs := endToEnd
	vals := b.e2e
	if b.cfg.trace {
		defs, vals = perLayer, b.layer
		fmt.Fprintf(w, "spans (benchmark-side, joined with program counters):\n")
		writeTable(w, b.tr.table())
		if b.cfg.traceDir != "" {
			path := filepath.Join(b.cfg.traceDir, fmt.Sprintf("%s-seed%d.ndjson", b.cfg.workload, b.cfg.seed))
			if err := writeSpans(path, b.tr); err != nil {
				fmt.Fprintf(w, "warning: writing spans: %v\n", err)
			} else {
				fmt.Fprintf(w, "spans written to %s\n", path)
			}
		}
	}
	if b.tierChecked+b.tierSkipped > 0 {
		b.note("tier-sum check: %d queries compared with their checkpoints' encoded size, %d skipped (payload-cache hits, or a deduplicated recording)", b.tierChecked, b.tierSkipped)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "check: %s\n", n)
	}
	res := result{Attempted: b.attempted, Failed: len(b.failures), Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(w, "metrics (%s):\n", map[bool]string{false: "end-to-end, tracing off", true: "per-layer, traced run"}[b.cfg.trace])
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	for i, f := range b.failures {
		if i == 20 {
			fmt.Fprintf(w, "FAIL: ... %d more\n", len(b.failures)-i)
			break
		}
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	return res
}

// writeSpans writes the traced run's spans to path as NDJSON.
func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// provenance describes what was measured and where.
func provenance(cfg config) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"git_sha":     envOr("PERFBENCH_GIT_SHA", "unknown"),
		"src_digest":  envOr("PERFBENCH_SRC_DIGEST", "unknown"),
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"host":        fmt.Sprintf("%s/%s-%s", host, runtime.GOOS, runtime.GOARCH),
		"started_utc": time.Now().UTC().Format(time.RFC3339),
	}
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

// run executes one benchmark invocation, printing the report and the JSON
// result line to out. It returns the result, or an error when the run
// could not produce one.
func run(cfg config, out io.Writer) (result, error) {
	runner, ok := workloadRunners[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloadRunners))
		for n := range workloadRunners {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workDir)
	prov, err := json.Marshal(provenance(cfg))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "provenance: %s\n", prov)
	b := newBench(cfg, out)
	if err := runner(b); err != nil {
		return result{}, err
	}
	res := b.finish()
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "workload: record, replay-rsnt, replay-cifr, flord-remote")
	seed := flag.Uint64("seed", 1, "workload seed (query order, sampled iterations)")
	seconds := flag.Float64("seconds", 14, "length of the timed section in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.Parse()

	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scale:    workloads.Full,
		setups:   defaultSetups[*workload],
		workDir:  work,
		traceDir: filepath.Join(".bench_build", "traces"),
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultSetups is how many times each workload sets up per run; setup_s
// is the median of their CPU times. A set-up repeats only while that stays
// affordable: a full pass of the benchmark repeats every workload about
// twenty times within an hour, and the RsNt recordings alone take 10-13 s
// on two cores.
var defaultSetups = map[string]int{
	"record":       1, // vanilla reference runs of RTE and Cifr, about 8 s
	"replay-cifr":  2, // one Cifr recording, about 5 s
	"replay-rsnt":  1, // one RsNt recording, 10-13 s
	"flord-remote": 1, // RsNt and Cifr recordings, upload, daemon start: about 15 s
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
