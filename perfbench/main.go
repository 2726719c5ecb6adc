// Command perfbench is GOOFI's end-to-end benchmark. It runs one named
// workload through the campaign engine, the storage stack and the campaign
// service for a fixed window, checks that every output is correct, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics)
// as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload scifi-wal --seed 1 --seconds 30 --trace 0
//
// WORKLOADS.md records why each workload was chosen and which layer metric
// is predicted to move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minSetupSamples is how many set-ups every run times at least.
const minSetupSamples = 15

// metric is one named metric with its unit.
type metric struct {
	name, unit string
}

// endToEnd lists the metrics every untraced run prints. Their timings are
// CPU time (see cputime.go) at the reference host speed (calibrate.go).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"exp_per_ref_cpu_s", "1/s"},
	{"report_ref_cpu_ms_p50", "ms"},
	{"report_ref_cpu_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer the workload
// does not reach reads 0.
var perLayer = []metric{
	{"thor.cycles", "count"},
	{"thor.run_s", "s"},
	{"thor.cycles_per_s", "1/s"},
	{"scan.calls", "count"},
	{"scan.s", "s"},
	{"scan.us_per_call", "us"},
	{"target.init_calls", "count"},
	{"target.init_s", "s"},
	{"target.restore_calls", "count"},
	{"target.restore_s", "s"},
	{"target.checkpoint_mb", "MB"},
	{"core.reference_s", "s"},
	{"core.self_s", "s"},
	{"dbase.put_calls", "count"},
	{"dbase.rows_per_put", "count"},
	{"dbase.put_s", "s"},
	{"dbase.put_ms_p50", "ms"},
	{"dbase.put_ms_tail", "ms"},
	{"vfs.syncs", "count"},
	{"vfs.sync_s", "s"},
	{"vfs.rows_per_sync", "count"},
	{"vfs.bytes_per_row", "B"},
	{"dbase.experiments_s", "s"},
	{"analysis.classify_s", "s"},
	{"analysis.put_analysis_s", "s"},
	{"analysis.allocs_per_row", "count"},
	{"http.submit_ms_p50", "ms"},
	{"http.status_ms_p50", "ms"},
	{"http.report_ms_p50", "ms"},
	{"service.queue_wait_s", "s"},
	{"obsv.trace_events", "count"},
	{"obsv.trace_dropped", "count"},
	{"trace.exp_per_cpu_s_untraced", "1/s"},
	{"trace.exp_per_cpu_s_traced", "1/s"},
	{"trace.overhead_pct", "%"},
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workdir  string // build and result directory inside the checkout
	source   string // digest of the code under test
	scratch  string // this run's stores, removed at exit

	ops          opCounter
	samples      map[string][]float64 // end-to-end samples by metric
	cpu          map[string][]float64 // end-to-end CPU-time samples as measured, for the context line
	wall         map[string][]float64 // wall-clock samples, for the context line
	layers       map[string]float64   // per-layer metrics
	digests      map[string]string    // rows digest by workload (and tenant)
	servedCycles []float64
	probes       []float64 // calibration kernel CPU times, seconds
	stealPct     float64   // share of the host's CPU time the hypervisor stole during the run
}

var workloads = map[string]func(b *bench) error{
	"scifi-wal":    func(b *bench) error { return b.campaignWorkload(scifiWAL(b.seed, scifiWALExperiments)) },
	"fork-late":    func(b *bench) error { return b.campaignWorkload(forkLate(b.seed, forkLateExperiments)) },
	"serve-report": (*bench).serveWorkload,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: scifi-wal, fork-late or serve-report")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for stores, traces and results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q seconds %d trace %d\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		workdir:  *workdir,
		source:   sourceDigest("."),
		samples:  map[string][]float64{},
		cpu:      map[string][]float64{},
		wall:     map[string][]float64{},
		layers:   map[string]float64{},
		digests:  map[string]string{},
	}
	for _, d := range []string{"work", "traces", "digests", "results"} {
		if err := os.MkdirAll(filepath.Join(b.workdir, d), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	scratch, err := os.MkdirTemp(filepath.Join(b.workdir, "work"), b.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.scratch = scratch
	steal0, total0 := cpuStat()
	err = fn(b)
	steal1, total1 := cpuStat()
	b.stealPct = 100 * ratio(float64(steal1-steal0), float64(total1-total0))
	os.RemoveAll(scratch)
	if err != nil {
		b.ops.add(1, 1, err)
	}
	return b.report(stdout, stderr)
}

// sample records one end-to-end sample.
func (b *bench) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

// wallSample records one wall-clock sample; their medians go to the context
// line only.
func (b *bench) wallSample(name string, v float64) {
	b.wall[name] = append(b.wall[name], v)
}

// checkDigest requires every campaign of one seed to leave the same rows:
// within the run, and across runs of the same code through the digest kept
// per key, seed and source digest.
func (b *bench) checkDigest(key, digest string) {
	if prev, ok := b.digests[key]; ok {
		b.ops.check(prev == digest, "%s: rows digest %s differs from %s within the run", key, digest, prev)
		return
	}
	b.digests[key] = digest
	path := filepath.Join(b.workdir, "digests", fmt.Sprintf("%s-seed%d-%s", key, b.seed, b.source))
	if prev, err := os.ReadFile(path); err == nil {
		b.ops.check(string(prev) == digest, "%s: rows digest %s differs from an earlier run's %s", key, digest, prev)
		return
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, []byte(digest), 0o644); err == nil {
		os.Rename(tmp, path)
	}
}

// overhead records experiments per CPU-second with and without the
// benchmark's tracing wrappers.
func (b *bench) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	b.layers["trace.exp_per_cpu_s_untraced"] = u
	b.layers["trace.exp_per_cpu_s_traced"] = t
	b.layers["trace.overhead_pct"] = 100 * ratio(u-t, u)
}

// rusage is where the process's time went: user and system CPU, page
// faults and context switches.
func rusage() map[string]any {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil
	}
	return map[string]any{
		"user_s": time.Duration(ru.Utime.Nano()).Seconds(), "sys_s": time.Duration(ru.Stime.Nano()).Seconds(),
		"minflt": ru.Minflt, "majflt": ru.Majflt, "nvcsw": ru.Nvcsw, "nivcsw": ru.Nivcsw,
	}
}

// resetPeakRSS starts a new peak-memory window: the kernel lowers the
// process's resident-set high-water mark to its current resident set.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS, or 0 where /proc cannot tell.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), "VmHWM:")
	if !ok {
		return 0
	}
	line, _, _ := strings.Cut(rest, "\n")
	kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), "kB")), 64)
	return kb / 1024
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report prints the run's context line and then the result line, keeps
// both under results/, and returns the exit code.
func (b *bench) report(stdout, stderr io.Writer) int {
	metrics := map[string]value{}
	samples := map[string]int{}
	for name, xs := range b.samples {
		samples[name] = len(xs)
	}
	reports := b.samples["report_cpu_ms"]
	tailV, tailPct, tailBeyondN := tail(reports)
	if b.traced {
		for _, m := range perLayer {
			metrics[m.name] = value{b.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "report_ref_cpu_ms_p50":
				v = median(reports)
			case "report_ref_cpu_ms_tail":
				v = tailV
			default:
				v = median(b.samples[m.name])
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	if !b.traced {
		for _, m := range endToEnd {
			b.ops.check(metrics[m.name].Value > 0, "%s was not measured", m.name)
		}
	}
	b.ops.mu.Lock()
	attempted, failed, firstErr := b.ops.attempted, b.ops.failed, b.ops.firstErr
	b.ops.mu.Unlock()
	correct := failed == 0 && firstErr == nil
	ctx := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.window.Seconds(),
		"trace":      b.traced,
		"machine":    machine(b.source),
		"samples":    samples,
		"error_rate": b.ops.errorRate(),
		"report_tail": map[string]any{
			"percentile": tailPct, "beyond": tailBeyondN, "samples": len(reports),
		},
		"cpu_medians":  cpuMedians(b.cpu),
		"wall_medians": wallMedians(b.wall),
		"calibration": map[string]any{
			"probe_ms_median": median(b.probes) * 1e3, "probes": len(b.probes),
			"nominal_ms": probeNominal.Seconds() * 1e3,
		},
		"steal_pct": b.stealPct,
		"rusage":    rusage(),
		"digests":   b.digests,
	}
	if firstErr != nil {
		ctx["first_error"] = firstErr.Error()
		fmt.Fprintln(stderr, "perfbench:", firstErr)
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: metrics}
	ctxLine, _ := json.Marshal(map[string]any{"context": ctx})
	resLine, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n%s\n", ctxLine, resLine)
	// The kept copy also lists every raw sample behind the medians.
	ctx["raw"] = b.samples
	ctx["raw_wall"] = b.wall
	ctx["raw_cpu"] = b.cpu
	ctx["raw_probes"] = b.probes
	rawLine, _ := json.Marshal(map[string]any{"context": ctx})
	keep := filepath.Join(b.workdir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, btoi(b.traced)))
	if err := os.WriteFile(keep, []byte(fmt.Sprintf("%s\n%s\n", rawLine, resLine)), 0o644); err != nil {
		fmt.Fprintln(stderr, "perfbench: keep result:", err)
	}
	if !correct {
		return 1
	}
	return 0
}

// cpuMedians gives the median of each CPU-time series as measured, at the
// speed the host had.
func cpuMedians(samples map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out
}

// wallMedians gives the median and sample count of each wall-clock series.
func wallMedians(wall map[string][]float64) map[string]any {
	out := map[string]any{}
	for name, xs := range wall {
		out[name] = map[string]any{"median": median(xs), "samples": len(xs)}
	}
	return out
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}
