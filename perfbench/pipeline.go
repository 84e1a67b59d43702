package main

import (
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crashpoint"
	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
	"repro/internal/metainfo"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/profiler"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/trigger"
)

// Pipeline defaults, as core.Options.defaults sets them.
const (
	baselineRuns = 3
	deadline     = sim.Hour
)

// pipeline replays the calls one `crashtuner -system S -seed N -scale K
// -workers 1` invocation makes — core.AnalysisPhase, the census,
// core.ProfilePhase, core.TestPhase — one public call at a time, so each
// can be timed as a span. The reports it produces are checked against
// the reference like any other op's, so a drift from the real call
// sequence shows up as a failure.
type pipeline struct {
	tr     *tracer
	parent int
	op     int
}

func (p pipeline) call(name string, fn func()) { p.tr.call(p.parent, p.op, name, fn) }

// analysis mirrors core.AnalysisPhase.
func (p pipeline) analysis(r cluster.Runner, seed int64, scale int) (*core.Result, *logparse.Matcher) {
	logs := dslog.NewRoot()
	p.call("sim.logrun", func() {
		run := r.NewRun(cluster.Config{Seed: seed, Scale: scale, Probe: probe.New(), Logs: logs})
		cluster.Drive(run, deadline)
	})
	program := p.program(r)
	var matcher *logparse.Matcher
	p.call("logparse.extract", func() { matcher = logparse.NewMatcher(logparse.ExtractPatterns(program)) })
	var parsed logparse.Result
	p.call("logparse.parse", func() { parsed = matcher.ParseAll(logs.Records()) })
	var analysis *metainfo.Analysis
	p.call("metainfo.infer", func() { analysis = metainfo.Infer(program, parsed.Matches, r.Hosts()) })
	var static *crashpoint.Result
	p.call("crashpoint.analyze", func() { static = crashpoint.Analyze(analysis) })
	p.tr.value("logparse.records", float64(len(parsed.Matches)+len(parsed.Unmatched)))
	p.tr.value("logparse.unmatched", float64(len(parsed.Unmatched)))
	p.tr.value("crashpoint.static_points", float64(len(static.Points)))
	return &core.Result{
		System:    r.Name(),
		Workload:  r.Workload(),
		Patterns:  len(matcher.Patterns()),
		Parsed:    len(parsed.Matches),
		Unmatched: len(parsed.Unmatched),
		Analysis:  analysis,
		Static:    static,
	}, matcher
}

// program builds the system's IR, recording the bytes it allocated.
func (p pipeline) program(r cluster.Runner) *ir.Program {
	var prog *ir.Program
	before := heapAllocs()
	p.call("ir.build", func() { prog = r.Program() })
	p.tr.value("ir.alloc_mb", float64(heapAllocs()-before)/(1<<20))
	return prog
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// census mirrors the crashtuner CLI's meta-info census line, which
// builds the IR a second time for the program-wide totals.
func (p pipeline) census(r cluster.Runner, res *core.Result) (metainfo.Census, ir.Census) {
	var meta metainfo.Census
	p.call("metainfo.census", func() { meta = res.Analysis.Census() })
	prog := p.program(r)
	var total ir.Census
	p.call("ir.census", func() { total = prog.Census() })
	return meta, total
}

// profile mirrors core.ProfilePhase.
func (p pipeline) profile(r cluster.Runner, res *core.Result, seed int64, scale int) {
	p.call("profiler.collect", func() {
		res.Dynamic = profiler.Collect(r, res.Static, profiler.Options{Seed: seed, StartScale: scale, Deadline: deadline})
	})
	p.tr.value("profiler.iterations", float64(res.Dynamic.Iterations))
	p.tr.value("profiler.dynamic_points", float64(len(res.Dynamic.Points)))
}

// tester mirrors the crash-family Tester core.TestPhase builds, baseline
// included.
func (p pipeline) tester(r cluster.Runner, res *core.Result, matcher *logparse.Matcher, seed int64, scale int) *trigger.Tester {
	p.call("trigger.baseline", func() {
		res.Baseline = trigger.MeasureBaseline(r, seed, scale, baselineRuns, deadline)
	})
	return &trigger.Tester{
		Config:   campaign.Config{Workers: 1},
		Runner:   r,
		Analysis: res.Analysis,
		Matcher:  matcher,
		Baseline: res.Baseline,
		Seed:     seed,
		Scale:    scale,
	}
}

// plan builds a Tester's snapshot plan.
func (p pipeline) plan(t *trigger.Tester) *trigger.SnapshotPlan {
	var plan *trigger.SnapshotPlan
	p.call("trigger.plan", func() { plan = t.BuildSnapshotPlan() })
	p.tr.value("trigger.clone_rungs", float64(plan.Rungs()))
	return plan
}

// test mirrors core.TestPhase for the plain crash family: the campaign
// over every dynamic point, then the NotHit retries at the profiler's
// final scale on a Tester copy with its own plan.
func (p pipeline) test(r cluster.Runner, res *core.Result, matcher *logparse.Matcher, seed int64, scale int) {
	t := p.tester(r, res, matcher, seed, scale)
	if p.tr != nil {
		t.Sink = obs.SinkFunc(func(ev obs.Event) {
			if ev.Kind == obs.RunDone {
				p.tr.value("trigger.run_ms", ms(ev.Wall))
			}
		})
	}
	before := readCounters()
	runs := len(res.Dynamic.Points)
	t.Snapshots = p.plan(t)
	p.call("trigger.campaign", func() { res.Reports = t.Campaign(res.Dynamic.Points) })
	if res.Dynamic.FinalScale > scale {
		var retry []int
		for i, rep := range res.Reports {
			if rep.Outcome == trigger.NotHit {
				retry = append(retry, i)
			}
		}
		if len(retry) > 0 {
			rt := *t
			rt.Scale = res.Dynamic.FinalScale
			rt.Snapshots = p.plan(&rt)
			points := make([]probe.DynPoint, len(retry))
			for j, i := range retry {
				points[j] = res.Reports[i].Dyn
			}
			var reps []trigger.Report
			p.call("trigger.campaign", func() { reps = rt.Campaign(points) })
			for j, rep := range reps {
				res.Reports[retry[j]] = rep
			}
			runs += len(retry)
		}
	}
	for _, rep := range res.Reports {
		res.Timing.VirtualTest += rep.Duration
	}
	p.call("trigger.summarize", func() { res.Summary = trigger.Summarize(res.Reports) })
	if p.tr != nil {
		p.tr.forkMix(before, runs)
		p.tr.value("trigger.harness_errors", float64(res.Summary.HarnessErrors))
	}
}

// render prints a pipeline result the way the crashtuner CLI does
// (without -v), with zero wall-clock timings; compare through normalize.
func render(res *core.Result, seed int64, scale int, meta metainfo.Census, total ir.Census) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CrashTuner on %s (workload %s, seed %d, scale %d)\n\n", res.System, res.Workload, seed, scale)
	fmt.Fprintf(&b, "Phase 1 — analysis (%v):\n", time.Duration(0))
	fmt.Fprintf(&b, "  log patterns: %d, parsed instances: %d (unmatched %d)\n", res.Patterns, res.Parsed, res.Unmatched)
	fmt.Fprintf(&b, "  meta-info: %d/%d types, %d/%d fields, %d/%d access points\n",
		meta.Types, total.Types, meta.Fields, total.Fields, meta.AccessPoints, total.AccessPoints)
	fmt.Fprintf(&b, "  static crash points: %d (pruned: ctor %d, unused %d, sanity %d)\n\n",
		len(res.Static.Points), res.Static.Pruned.Constructor, res.Static.Pruned.Unused, res.Static.Pruned.SanityCheck)
	fmt.Fprintf(&b, "Phase 2 — profiling (%v): %d dynamic crash points in %d iterations (final scale %d)\n\n",
		time.Duration(0), len(res.Dynamic.Points), res.Dynamic.Iterations, res.Dynamic.FinalScale)
	fmt.Fprintf(&b, "Phase 3 — fault-injection testing (%v wall, %v virtual):\n", time.Duration(0), res.Timing.VirtualTest)
	for _, rep := range res.Reports {
		if rep.Outcome == trigger.OK {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %-70s", rep.Outcome, rep.Dyn.Point)
		if rep.Injected != nil {
			fmt.Fprintf(&b, " [%s %s @%v]", rep.Injected.Kind, rep.Injected.Node, rep.Injected.At)
		}
		if len(rep.Witnesses) > 0 {
			fmt.Fprintf(&b, " bugs=%v", rep.Witnesses)
		}
		if rep.Reason != "" {
			fmt.Fprintf(&b, " (%s)", rep.Reason)
		}
		b.WriteString("\n")
	}
	s := res.Summary
	fmt.Fprintf(&b, "\nSummary: %d points tested, %d bug reports (%d distinct), %d timeout issues; seeded bugs detected: %v\n",
		s.Tested, s.Bugs, s.DistinctBugs, s.TimeoutIssues, s.WitnessedBugs)
	return b.String()
}

// normalize elides the wall-clock part of the CLI's phase headers
// ("Phase 3 — fault-injection testing (1ms wall, 97.915s virtual):"
// keeps only the virtual time), the one part of the output that differs
// between identical runs.
func normalize(out string) string {
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		if !strings.HasPrefix(ln, "Phase ") {
			continue
		}
		open := strings.Index(ln, " (")
		close := strings.Index(ln, "):")
		if open < 0 || close < open {
			continue
		}
		inner := ln[open+2 : close]
		keep := ""
		if k := strings.Index(inner, " wall, "); k >= 0 {
			keep = inner[k+len(" wall, "):]
		}
		lines[i] = ln[:open] + " (" + keep + ")" + ln[close+1:]
	}
	return strings.Join(lines, "\n")
}
