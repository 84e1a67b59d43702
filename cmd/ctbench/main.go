// Command ctbench regenerates every table and figure of the paper's
// evaluation from this reproduction: the census tables come from the
// registry, the experiment tables from live pipeline and baseline runs
// over all five simulated systems.
//
// Usage:
//
//	ctbench                 # everything
//	ctbench -exp table10    # one experiment
//	ctbench -exp list       # list experiment ids
//
// Performance tooling:
//
//	ctbench -cpuprofile cpu.pprof -exp summary   # profile the pipelines
//	ctbench -memprofile mem.pprof -exp summary
//	ctbench -bench-json BENCH_matcher.json       # matcher-ingest numbers
//	ctbench -triage-bench BENCH_triage.json      # triage ingest+cluster numbers
//	ctbench -campaign-bench BENCH_campaign.json  # legacy vs snapshot campaign
//
// The benchmark-regression gate compares freshly measured records
// against committed floor files and exits non-zero on any violation:
//
//	ctbench -bench-json fresh.json -gate BENCH_matcher.json
//	ctbench -campaign-bench fresh.json -gate BENCH_campaign.json
//	ctbench -bench-json m.json -campaign-bench c.json -gate BENCH_matcher.json,BENCH_campaign.json
//
// The offline analysis artifacts are memoized per system through
// core.SharedArtifacts, so rendering several run-based tables pays the
// analysis phase once; -artifact-cache=false disables the cache.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/benchgate"
	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/dslog"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/systems/cluster"
	"repro/internal/triage"
	"repro/internal/trigger"
)

var experiments = []string{
	"fig-metainfo", "table1", "table2", "table3", "table4", "table5",
	"table6", "table7", "table8", "table9", "table10", "table11",
	"table12", "table13", "repro", "timeouts", "summary", "pairs",
	"recovery", "partition",
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (see -exp list)")
		seed        = flag.Int64("seed", 11, "seed")
		scale       = flag.Int("scale", 1, "workload scale")
		randomRuns  = flag.Int("random-runs", 200, "runs per system for the random baseline (paper: 3000)")
		useCache    = flag.Bool("artifact-cache", true, "memoize the offline analysis phase per system (output is identical either way)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchJSON   = flag.String("bench-json", "", "run the matcher-ingest microbenchmark and write its JSON record to this file (e.g. BENCH_matcher.json)")
		triageBench = flag.String("triage-bench", "", "run the triage ingest+cluster microbenchmark and write its JSON record to this file (e.g. BENCH_triage.json)")
		campBench   = flag.String("campaign-bench", "", "run the legacy-vs-snapshot campaign benchmark and write its JSON record to this file (e.g. BENCH_campaign.json)")
		benchSystem = flag.String("bench-system", "yarn", "system the -campaign-bench measures (the committed floor file pins the same system)")
		gateFiles   = flag.String("gate", "", "comma-separated committed floor files (BENCH_matcher.json, BENCH_campaign.json); compare the records measured by this invocation against them and fail on any regression")
		restartMS   = flag.Int64("restart-after", 2000, "recovery experiment: restart the victim this many ms (virtual) after the fault")
		secondMS    = flag.Int64("second-fault-after", 0, "recovery experiment: inject a second fault this many ms (virtual) after the restart (0: none)")
		secondKind  = flag.String("second-fault", "crash", "recovery experiment: second fault kind (crash or shutdown)")
	)
	var fl cliflags.Flags
	fl.RegisterCampaign(flag.CommandLine, "checkpoint directory: campaigns append per-system JSONL checkpoints under it")
	fl.RegisterTriage(flag.CommandLine, "")
	fl.RegisterObs(flag.CommandLine)
	fl.RegisterExtras(flag.CommandLine)
	flag.Parse()

	if *exp == "list" {
		fmt.Println(strings.Join(experiments, "\n"))
		return
	}

	// Observability stack: metrics always feed the default registry;
	// -progress adds the human-readable stderr sink, -trace the JSONL
	// tracer, -obs-addr the scrape endpoint over all of it.
	rt, err := fl.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer func() {
		if err := rt.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	ranBench := false
	var matcherRec *benchgate.MatcherRecord
	var campaignRec *benchgate.CampaignRecord
	if *benchJSON != "" {
		rec, err := writeMatcherBench(*benchJSON, *seed, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		matcherRec = &rec
		ranBench = true
	}
	if *triageBench != "" {
		if err := writeTriageBench(*triageBench); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ranBench = true
	}
	if *campBench != "" {
		rec, err := writeCampaignBench(*campBench, *benchSystem, *seed, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		campaignRec = &rec
		ranBench = true
	}
	if *gateFiles != "" {
		if err := runGate(*gateFiles, matcherRec, campaignRec); err != nil {
			fmt.Fprintln(os.Stderr, "bench-gate:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "bench-gate: all committed floors held")
	}
	// Alone, the bench emitters write their records and exit; combine
	// them with an explicit -exp to also render tables in the same
	// process.
	if ranBench && *exp == "all" {
		return
	}

	want := func(id string) bool { return *exp == "all" || *exp == id }

	// Static tables need no runs.
	if want("table1") {
		fmt.Println(report.Table1())
	}
	if want("table3") {
		fmt.Println(report.Table3())
	}
	if want("table4") {
		fmt.Println(report.Table4())
	}
	if want("table6") {
		fmt.Println(report.Table6())
	}
	if want("table13") {
		fmt.Println(report.Table13())
	}
	if want("repro") {
		fmt.Println(report.ReproSummary())
	}

	needPipelines := false
	for _, id := range []string{"table2", "table5", "table7", "table8", "table9",
		"table10", "table11", "table12", "timeouts", "summary"} {
		if want(id) {
			needPipelines = true
		}
	}
	if want("fig-metainfo") {
		r, err := all.ByName("yarn")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(report.FigMetaInfo(r, *seed, *scale))
	}
	if want("pairs") {
		r, err := all.ByName("yarn")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(report.PairSummary(r, *seed, *scale, 40))
	}
	needRecovery := want("recovery")
	needPartition := want("partition")
	if !needPipelines && !needRecovery && !needPartition {
		return
	}

	x := report.NewExperiments(*seed, *scale, *randomRuns)
	x.Workers = fl.Workers
	if *useCache {
		x.Artifacts = core.SharedArtifacts
	}
	if fl.Checkpoint != "" {
		if err := os.MkdirAll(fl.Checkpoint, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		x.CheckpointDir = fl.Checkpoint
		x.Resume = fl.Resume
	}
	x.Sink = rt.Config.Sink
	x.Recorder = rt.Config.Recorder
	if needRecovery {
		rc := &trigger.RecoveryOptions{
			RestartDelay:     sim.Time(*restartMS) * sim.Millisecond,
			SecondFaultDelay: sim.Time(*secondMS) * sim.Millisecond,
		}
		if *secondKind == "shutdown" {
			rc.SecondFaultKind = sim.FaultShutdown
		}
		fmt.Fprintln(os.Stderr, "running recovery-phase campaigns on all systems...")
		x.RunRecovery(rc)
		fmt.Println(x.RecoveryTable())
	}
	if needPartition {
		fmt.Fprintln(os.Stderr, "running partition-phase campaigns on all systems...")
		x.RunPartition(nil)
		fmt.Println(x.PartitionTable())
	}
	if !needPipelines {
		return
	}
	fmt.Fprintln(os.Stderr, "running CrashTuner pipelines on all systems...")
	x.RunPipelines()
	if want("table2") {
		fmt.Println(report.Table2(x.Results["yarn"].Analysis))
	}
	if want("table5") {
		fmt.Println(x.Table5Live())
	}
	if want("table10") {
		fmt.Println(x.Table10())
	}
	if want("table11") {
		fmt.Println(x.Table11())
	}
	if want("table12") {
		fmt.Println(x.Table12())
	}
	if want("timeouts") {
		fmt.Println(x.Timeouts())
	}
	if want("summary") {
		fmt.Println(x.CampaignSummary())
	}
	if want("table7") || want("table8") || want("table9") {
		fmt.Fprintln(os.Stderr, "running baselines (random + IO injection)...")
		x.RunBaselines()
		if want("table7") {
			fmt.Println(x.Table7())
		}
		if want("table8") {
			fmt.Println(x.Table8())
		}
		if want("table9") {
			fmt.Println(x.Table9())
		}
	}
}

// writeMatcherBench measures the hot ingest path — one MatchSession
// matching every record of a profiling run — and writes the result as
// JSON. ns/op and allocs/op here are the numbers the bench-gate CI job
// holds against the committed BENCH_matcher.json floor.
func writeMatcherBench(path string, seed int64, scale int) (benchgate.MatcherRecord, error) {
	var rec benchgate.MatcherRecord
	r, err := all.ByName("yarn")
	if err != nil {
		return rec, err
	}
	_, matcher := core.SharedArtifacts.AnalysisPhase(r, core.Options{Seed: seed, Scale: scale})
	logs := dslog.NewRoot()
	run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
	cluster.Drive(run, sim.Hour)
	records := logs.Records()
	if len(records) == 0 {
		return rec, fmt.Errorf("bench-json: profiling run produced no records")
	}

	session := matcher.NewSession()
	matched := 0
	for _, mrec := range records {
		if session.Match(mrec) != nil {
			matched++
		}
	}
	br := testing.Benchmark(func(b *testing.B) {
		s := matcher.NewSession()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, mrec := range records {
				_ = s.Match(mrec)
			}
		}
	})

	rec = benchgate.MatcherRecord{
		Benchmark:    benchgate.MatcherKind,
		System:       r.Name(),
		RecordsPerOp: len(records),
		Matched:      matched,
		Iterations:   br.N,
		NsPerOp:      float64(br.NsPerOp()),
		NsPerRecord:  float64(br.NsPerOp()) / float64(len(records)),
		AllocsPerOp:  br.AllocsPerOp(),
		BytesPerOp:   br.AllocedBytesPerOp(),
	}
	if err := benchgate.WriteFile(path, rec); err != nil {
		return rec, err
	}
	fmt.Fprintf(os.Stderr, "bench-json: %s — %d records/op, %.0f ns/op (%.1f ns/record), %d allocs/op, %d B/op\n",
		path, rec.RecordsPerOp, rec.NsPerOp, rec.NsPerRecord, rec.AllocsPerOp, rec.BytesPerOp)
	return rec, nil
}

// campaignFixture runs analysis, profiling and the baseline for one
// system at one scale and returns a sequential Tester plus the profiled
// dynamic points — everything the campaign benchmark needs outside its
// timed loops.
func campaignFixture(r cluster.Runner, seed int64, scale int) (*trigger.Tester, []probe.DynPoint, error) {
	opts := core.Options{Seed: seed, Scale: scale}
	res, matcher := core.SharedArtifacts.AnalysisPhase(r, opts)
	core.ProfilePhase(r, res, opts)
	points := res.Dynamic.Points
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("campaign-bench: profiling found no dynamic points at scale %d", scale)
	}
	t := &trigger.Tester{
		Config:   campaign.Config{Workers: 1}, // per-run cost, not pool speedup
		Runner:   r,
		Analysis: res.Analysis,
		Matcher:  matcher,
		Baseline: trigger.MeasureBaseline(r, seed, scale, 3, 0),
		Seed:     seed,
		Scale:    scale,
	}
	return t, points, nil
}

// campaignSpeedup is the interleaved-round estimator behind both the
// headline record and the sweep entries: the same campaign timed both
// ways in adjacent short rounds, with the ns/op fields as per-side
// round floors and a median-pair-ratio sanity fence.
//
// Two back-to-back testing.Benchmark phases would let a burst of
// external load (CI runners, shared VMs) land entirely on one side and
// skew the ratio in either direction. Instead both paths are timed in
// short adjacent rounds, so each pair sees the same machine weather.
// Contention only ever adds time, so the fastest round per side is the
// best estimate of that side's true cost; the median of per-pair ratios
// is far noisier (load shifts within a pair's ~25ms window) and is kept
// only as a sanity fence — if it strays wildly below the floor ratio,
// the floors were measured under such asymmetric load that the run must
// not publish a record at all.
func campaignSpeedup(t *trigger.Tester, points []probe.DynPoint, plan *trigger.SnapshotPlan) (legacyNs, snapNs float64, iters int, err error) {
	// An untimed differential pass first proves the two paths produce
	// byte-identical reports, so the ratio compares equal work.
	t.Snapshots = nil
	legacyReports := t.Campaign(points)
	t.Snapshots = plan
	snapReports := t.Campaign(points)
	if !reflect.DeepEqual(legacyReports, snapReports) {
		return 0, 0, 0, fmt.Errorf("campaign-bench: snapshot reports diverged from full replays at scale %d; benchmark would compare unequal work", t.Scale)
	}

	timeRound := func(iters int) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			_ = t.Campaign(points)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	calibrate := func(budget float64) int {
		per := timeRound(1) // also warms caches and the page heap
		n := int(budget / per)
		if n < 2 {
			n = 2
		}
		return n
	}
	const (
		rounds      = 15
		roundBudget = 12e6 // ns of work per side per round
	)
	// Collect garbage left by whatever ran earlier in this process (e.g.
	// the matcher benchmark, a previous sweep scale) once, before
	// calibration; the calibration passes then re-establish steady-state
	// GC pacing before any round is timed. Forcing a GC inside the round
	// loop would be worse: it shrinks the pacer's heap goal every pair
	// and the recovery cost lands disproportionately on the lighter
	// snapshot side.
	runtime.GC()
	t.Snapshots = nil
	legacyIters := calibrate(roundBudget)
	t.Snapshots = plan
	snapIters := calibrate(roundBudget)
	ratios := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t.Snapshots = nil
		lv := timeRound(legacyIters)
		t.Snapshots = plan
		sv := timeRound(snapIters)
		if legacyNs == 0 || lv < legacyNs {
			legacyNs = lv
		}
		if snapNs == 0 || sv < snapNs {
			snapNs = sv
		}
		ratios = append(ratios, lv/sv)
		if os.Getenv("CTBENCH_ROUNDS") != "" {
			fmt.Fprintf(os.Stderr, "scale %d round %2d: legacy %.0f snap %.0f ratio %.2f\n", t.Scale, i, lv, sv, lv/sv)
		}
	}
	t.Snapshots = nil
	sort.Float64s(ratios)
	medianRatio := ratios[len(ratios)/2]
	if speedup := legacyNs / snapNs; medianRatio < speedup/2 {
		return 0, 0, 0, fmt.Errorf("campaign-bench: unstable measurement at scale %d (floor ratio %.2fx vs median pair ratio %.2fx); rerun on a quieter machine", t.Scale, speedup, medianRatio)
	}
	return legacyNs, snapNs, rounds * snapIters, nil
}

// sweepScales picks the points-scale sweep for a gated scale: the
// smallest workload, the midpoint, and the gated scale itself, deduped.
func sweepScales(scale int) []int {
	out := []int{1}
	if mid := (scale + 1) / 2; mid > 1 && mid < scale {
		out = append(out, mid)
	}
	if scale > 1 {
		out = append(out, scale)
	}
	return out
}

// writeCampaignBench measures the injection campaign both ways in one
// process — every run replayed from t=0, then every run forked from the
// snapshot plan's clone rungs — and writes the speedup record the
// bench-gate CI job holds against the committed BENCH_campaign.json
// floor. Analysis, profiling, the baseline and the reference pass all
// run outside the timed loops. Alongside the gated-scale headline the
// record carries the plan's retained heap per clone rung (the memory
// price of skipping prefix replay) and a points-scale sweep showing the speedup
// growing with timeline length.
func writeCampaignBench(path, system string, seed int64, scale int) (benchgate.CampaignRecord, error) {
	var rec benchgate.CampaignRecord
	r, err := all.ByName(system)
	if err != nil {
		return rec, err
	}
	t, points, err := campaignFixture(r, seed, scale)
	if err != nil {
		return rec, err
	}

	// Clone memory: the whole plan's post-GC retained heap — captures,
	// frozen views and clone templates alike — per rung.
	var base, planStats runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	plan := t.BuildSnapshotPlan()
	runtime.GC()
	runtime.ReadMemStats(&planStats)
	if plan.Rungs() == 0 {
		return rec, fmt.Errorf("campaign-bench: %s captured no clone rungs; every fork would take the legacy path", r.Name())
	}
	bytesPerSnapshot := (int64(planStats.HeapAlloc) - int64(base.HeapAlloc)) / int64(plan.Rungs())
	if bytesPerSnapshot < 0 {
		bytesPerSnapshot = 0
	}

	legacyNs, snapNs, iters, err := campaignSpeedup(t, points, plan)
	if err != nil {
		return rec, err
	}
	speedup := legacyNs / snapNs

	sweep := make([]benchgate.SweepPoint, 0, 3)
	for _, sc := range sweepScales(scale) {
		if sc == scale {
			sweep = append(sweep, benchgate.SweepPoint{Scale: sc, Points: len(points), Speedup: speedup})
			continue
		}
		ts, pts, err := campaignFixture(r, seed, sc)
		if err != nil {
			return rec, err
		}
		ln, sn, _, err := campaignSpeedup(ts, pts, ts.BuildSnapshotPlan())
		if err != nil {
			return rec, err
		}
		sweep = append(sweep, benchgate.SweepPoint{Scale: sc, Points: len(pts), Speedup: ln / sn})
	}

	// Allocation counts are stable run to run; one untimed pass suffices.
	t.Snapshots = plan
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	const allocIters = 10
	for i := 0; i < allocIters; i++ {
		_ = t.Campaign(points)
	}
	runtime.ReadMemStats(&m1)
	t.Snapshots = nil

	// Informational partition row: the same points re-run as network
	// cuts under the partition oracles, timed coarsely (a few whole
	// campaigns). Never gated — the row documents the partition family's
	// cost and yield next to the crash campaign it rides on.
	pt := *t
	pt.Partition = &trigger.PartitionOptions{}
	pt.Snapshots = pt.BuildSnapshotPlan()
	const partIters = 3
	var preps []trigger.Report
	pstart := time.Now()
	for i := 0; i < partIters; i++ {
		preps = pt.Campaign(points)
	}
	partNs := float64(time.Since(pstart).Nanoseconds()) / partIters
	psum := trigger.Summarize(preps)
	partRow := &benchgate.PartitionBench{
		NsPerOp: partNs,
		Cuts:    psum.Partitions,
		Healed:  psum.Heals,
		Bugs:    psum.Bugs,
	}

	rec = benchgate.CampaignRecord{
		Benchmark:             benchgate.CampaignKind,
		System:                r.Name(),
		PointsPerOp:           len(points),
		SnapshotPoints:        plan.Points(),
		Iterations:            iters,
		LegacyNsPerOp:         legacyNs,
		SnapshotNsPerOp:       snapNs,
		Speedup:               speedup,
		MinSpeedup:            8,
		AllocsPerOp:           int64((m1.Mallocs - m0.Mallocs) / allocIters),
		BytesPerOp:            int64((m1.TotalAlloc - m0.TotalAlloc) / allocIters),
		CloneRungs:            plan.Rungs(),
		CloneBytesPerSnapshot: bytesPerSnapshot,
		Sweep:                 sweep,
		Partition:             partRow,
	}
	if err := benchgate.WriteFile(path, rec); err != nil {
		return rec, err
	}
	fmt.Fprintf(os.Stderr, "campaign-bench: %s — %d points, legacy %.0f ns/op, snapshot %.0f ns/op, %.2fx speedup, %d allocs/op, %d rungs @ %d B retained\n",
		path, rec.PointsPerOp, rec.LegacyNsPerOp, rec.SnapshotNsPerOp, rec.Speedup, rec.AllocsPerOp, rec.CloneRungs, rec.CloneBytesPerSnapshot)
	for _, sp := range rec.Sweep {
		fmt.Fprintf(os.Stderr, "campaign-bench:   sweep scale %d — %d points, %.2fx\n", sp.Scale, sp.Points, sp.Speedup)
	}
	fmt.Fprintf(os.Stderr, "campaign-bench:   partition (informational) — %.0f ns/op, %d cuts (%d healed), %d bug reports\n",
		rec.Partition.NsPerOp, rec.Partition.Cuts, rec.Partition.Healed, rec.Partition.Bugs)
	return rec, nil
}

// runGate compares the records measured by this invocation against the
// committed floor files, dispatching each file on its "benchmark"
// discriminator. Any tolerance-band violation fails the gate.
func runGate(files string, matcherRec *benchgate.MatcherRecord, campaignRec *benchgate.CampaignRecord) error {
	tol := benchgate.DefaultTolerance()
	for _, path := range strings.Split(files, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		kind, err := benchgate.Kind(data)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		var violations []string
		switch kind {
		case benchgate.MatcherKind:
			if matcherRec == nil {
				return fmt.Errorf("%s is a %s floor but no fresh record was measured (add -bench-json)", path, kind)
			}
			var floor benchgate.MatcherRecord
			if err := json.Unmarshal(data, &floor); err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			violations = benchgate.CheckMatcher(*matcherRec, floor, tol)
		case benchgate.CampaignKind:
			if campaignRec == nil {
				return fmt.Errorf("%s is a %s floor but no fresh record was measured (add -campaign-bench)", path, kind)
			}
			var floor benchgate.CampaignRecord
			if err := json.Unmarshal(data, &floor); err != nil {
				return fmt.Errorf("%s: %v", path, err)
			}
			violations = benchgate.CheckCampaign(*campaignRec, floor, tol)
		default:
			return fmt.Errorf("%s: unknown benchmark kind %q", path, kind)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%s:\n  %s", path, strings.Join(violations, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "bench-gate: %s held\n", path)
	}
	return nil
}

// triageBenchRecord is the JSON schema of the -triage-bench emitter.
type triageBenchRecord struct {
	Benchmark    string  `json:"benchmark"`
	RecordsPerOp int     `json:"records_per_op"`
	Clusters     int     `json:"clusters_per_op"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	NsPerRecord  float64 `json:"ns_per_record"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
}

// triageBenchWorkload builds a deterministic synthetic campaign: many
// failing runs whose volatile tokens (targets, timestamps) vary per run
// while the underlying signatures collapse to a bounded cluster count —
// the shape the triage ingest path sees in practice.
func triageBenchWorkload() []campaign.RunRecord {
	const records, groups = 2000, 40
	recs := make([]campaign.RunRecord, 0, records)
	for i := 0; i < records; i++ {
		g := i % groups
		node := i % 7
		recs = append(recs, campaign.RunRecord{
			System:   "bench",
			Campaign: "test",
			Run:      i,
			Seed:     int64(11 + i),
			Point:    fmt.Sprintf("bench.Master.handle#%d", g),
			Scenario: "pre-read",
			Stack:    fmt.Sprintf("bench.Master.handle%d<bench.Master.dispatch<rpc.serve", g),
			Fault:    "crash",
			Target:   fmt.Sprintf("node%d:%d", node, 7000+node),
			Outcome:  "job-failure",
			Failing:  true,
			Exceptions: []string{fmt.Sprintf(
				"NullPointerException@bench.Master.handle%d: worker node%d:%d lost at 2019-10-27T14:%02d:%02dZ",
				g, node, 7000+node, i%60, (i*7)%60)},
		})
	}
	return recs
}

// writeTriageBench measures the triage hot path — signature
// computation, index dedup and clustering over a full campaign's
// records — and writes the result as JSON (BENCH_triage.json in CI
// artifacts).
func writeTriageBench(path string) error {
	recs := triageBenchWorkload()
	ingest := func() *triage.Index {
		ix := triage.NewIndex()
		for _, rr := range recs {
			ix.Add(triage.FromRunRecord(rr))
		}
		return ix
	}
	clusters := len(ingest().Clusters())
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ingest().Clusters()
		}
	})

	rec := triageBenchRecord{
		Benchmark:    "triage-ingest",
		RecordsPerOp: len(recs),
		Clusters:     clusters,
		Iterations:   br.N,
		NsPerOp:      float64(br.NsPerOp()),
		NsPerRecord:  float64(br.NsPerOp()) / float64(len(recs)),
		AllocsPerOp:  br.AllocsPerOp(),
		BytesPerOp:   br.AllocedBytesPerOp(),
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "triage-bench: %s — %d records/op -> %d clusters, %.0f ns/op (%.1f ns/record), %d allocs/op, %d B/op\n",
		path, rec.RecordsPerOp, rec.Clusters, rec.NsPerOp, rec.NsPerRecord, rec.AllocsPerOp, rec.BytesPerOp)
	return nil
}
