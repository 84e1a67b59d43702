// Command perfbench is the repository benchmark: three closed-loop
// workloads (cold-pipeline, deep-campaign, fleet-recorded) that drive
// the CrashTuner pipeline through its public packages, check every
// output against a reference computed on the legacy full-replay path,
// and report end-to-end metrics or, with -trace 1, per-layer metrics
// taken from spans the benchmark records around each public call.
//
// Usage (normally through run.py, which builds this binary and the
// crashtuner CLI first):
//
//	perfbench -workload cold-pipeline -seed 1 -seconds 30 -trace 0 -crashtuner .bench_build/bin/crashtuner
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metric definitions and the layer→end-to-end
// prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/toysys"
	"repro/internal/systems/yarn"
)

// minOps is the per-run op floor: with at least 200 latencies, at least
// ten samples lie beyond the p95.
const minOps = 200

// setupReps is how many times each workload builds its set-up; setup_s
// reports the median.
const setupReps = 3

// maxRun bounds one run's measuring loop, whatever -seconds says, so a
// slow op can never push the process past its time budget.
const maxRun = 120 * time.Second

type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	crashtuner string
	work       string
}

// outcome is what a workload hands back to the reporting code.
type outcome struct {
	setup    []time.Duration // one per set-up repetition
	lat      []time.Duration // per measured op
	window   time.Duration   // wall time of the measuring loop
	virt     []sim.Time      // per measured op: simulated time of its injection runs
	rssKB    int64           // peak resident set of the process the user runs
	failures []string        // one line per failed op
	// traced runs only
	layers *layerStats
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"cold-pipeline":  runCold,
	"deep-campaign":  runDeep,
	"fleet-recorded": runFleet,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(coldChild(os.Args[2:]))
		case "refs":
			os.Exit(coldRefs(os.Args[2:]))
		}
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "cold-pipeline, deep-campaign or fleet-recorded")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every program input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measuring loop")
	flag.IntVar(&traceFlag, "trace", 0, "1: record per-layer spans and report per-layer metrics")
	flag.StringVar(&cfg.crashtuner, "crashtuner", "", "path of the crashtuner binary (cold-pipeline)")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "directory for round artifacts and the span dump")
	flag.Parse()
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := report(cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// systems lists the seven systems in Table 4 order, extensions last.
func systems() []string {
	var names []string
	for _, r := range append(all.Runners(), all.Extensions()...) {
		names = append(names, r.Name())
	}
	return names
}

// programSeeds draws n distinct program seeds from the workload seed.
func programSeeds(rng *rand.Rand, n int) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for len(out) < n {
		s := rng.Int63n(1_000_000) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// knownBugs is every seeded-bug ID the registry accounts for: the
// studied bugs, the Table 5 bugs and the Kubernetes study (witnessed as
// K8S-<pr>). Two kinds of seeded IDs live outside the registry's tables
// and are declared by their systems instead: the authoring template's
// two bugs, and yarn's §4.1.3 fetch-timeout issue, whose path also
// fires in runs that fail for another bug.
func knownBugs() map[string]bool {
	known := map[string]bool{toysys.BugPreRead: true, toysys.BugPostWrite: true, yarn.BugFetchTimeout: true}
	for _, b := range registry.StudiedBugs() {
		known[b.ID] = true
	}
	for _, b := range registry.NewBugs() {
		known[b.ID] = true
	}
	for _, b := range registry.KubernetesBugs() {
		known["K8S-"+strings.TrimPrefix(b.PR, "#")] = true
	}
	return known
}

// unknownBugs lists the witnessed IDs the registry does not know.
func unknownBugs(known map[string]bool, ids []string) []string {
	var out []string
	for _, id := range ids {
		if !known[id] {
			out = append(out, id)
		}
	}
	return out
}

// report renders the human-readable summary and builds the result line.
func report(cfg config, out *outcome) result {
	n := len(out.lat)
	res := result{
		Correct:   len(out.failures) == 0 && n > 0,
		Attempted: n,
		Failed:    len(out.failures),
		Metrics:   map[string]metric{},
	}
	for i, f := range out.failures {
		if i == 10 {
			fmt.Printf("FAIL ... %d more\n", len(out.failures)-i)
			break
		}
		fmt.Println("FAIL", f)
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("%s, seed %d, %s: %d ops in %.2fs, fail_frac %g (%d/%d)\n",
		cfg.workload, cfg.seed, mode, n, out.window.Seconds(), frac(len(out.failures), n), len(out.failures), n)
	if cfg.trace {
		for _, m := range out.layers.metrics() {
			res.Metrics[m.name] = metric{m.value, m.unit}
			fmt.Printf("  %-26s %14.4f %-6s (%d samples)\n", m.name, m.value, m.unit, m.samples)
		}
		for _, c := range out.layers.checks {
			fmt.Println(" ", c)
		}
		return res
	}
	// Rates are over the time spent in ops: the untimed per-op checks
	// between them are excluded.
	var busy time.Duration
	var virt sim.Time
	for i, d := range out.lat {
		busy += d
		virt += out.virt[i]
	}
	sorted := append([]time.Duration(nil), out.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	e2e := []struct {
		name    string
		value   float64
		unit    string
		samples string
	}{
		{"setup_s", median(out.setup).Seconds(), "s", fmt.Sprintf("median of %d set-ups", len(out.setup))},
		{"ops_per_s", float64(n) / busy.Seconds(), "1/s", fmt.Sprintf("%d ops", n)},
		{"op_ms_p50", ms(quantile(sorted, 0.50)), "ms", fmt.Sprintf("%d ops", n)},
		{"op_ms_p95", ms(quantile(sorted, 0.95)), "ms", fmt.Sprintf("%d ops, %d beyond it", n, n-1-int(0.95*float64(n-1)))},
		{"virtual_x", float64(virt) / float64(sim.Second) / busy.Seconds(), "x", fmt.Sprintf("%d ops", n)},
		{"rss_peak_mb", float64(out.rssKB) / 1024, "MB", "peak"},
	}
	for _, m := range e2e {
		res.Metrics[m.name] = metric{m.value, m.unit}
		fmt.Printf("  %-12s %14.4f %-4s (%s)\n", m.name, m.value, m.unit, m.samples)
	}
	return res
}

// closedLoop runs op back to back, one client, until the measuring
// window has passed, at least minOps ops completed and the ops made
// whole passes over the run's inputs (n of them, op i taking input
// nth(i, n, cfg.trace)), so every run executes each input equally
// often; maxRun cuts it short regardless. It returns the per-op
// latencies and the window. The check an op returns, if any, runs
// untimed right after it.
func closedLoop(cfg config, n int, op func(i int) (check func())) ([]time.Duration, time.Duration) {
	want := time.Duration(cfg.seconds * float64(time.Second))
	pass := n
	if cfg.trace {
		pass *= 2
	}
	var lat []time.Duration
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		check := op(i)
		lat = append(lat, time.Since(t0))
		if check != nil {
			check()
		}
		el := time.Since(start)
		if (el >= want && len(lat) >= minOps && len(lat)%pass == 0) || el >= maxRun {
			return lat, el
		}
	}
}

// timeSetup runs build setupReps times and returns every duration; the
// last build's products are what the caller keeps.
func timeSetup(build func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	f := pos - float64(lo)
	return time.Duration(float64(sorted[lo])*(1-f) + float64(sorted[hi])*f)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// resetPeakRSS starts the peak-RSS reading of an in-process measuring
// loop: it returns set-up garbage to the OS and resets the kernel's
// resident-set high-water mark, so loopRSSKB reports the loop's peak
// (retained set-up artifacts included) rather than a set-up transient.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Where this fails (not Linux), loopRSSKB reports the lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// loopRSSKB is this process's peak resident set since resetPeakRSS, or
// over its lifetime where the high-water mark cannot be read.
func loopRSSKB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if f := strings.Fields(ln); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// roundDir makes a fresh, empty directory for one op's artifacts.
func roundDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// spanPath names the span dump of one traced run.
func spanPath(cfg config) string {
	return filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", strings.ReplaceAll(cfg.workload, "/", "_"), cfg.seed))
}
