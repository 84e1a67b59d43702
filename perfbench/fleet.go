package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/failmode"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/triage"
	"repro/internal/trigger"
)

// The fleet-recorded round: one plan per system at one program seed
// and scale fleetScale, drained by fleetWorkers in-process workers over
// loopback HTTP. Rounds rotate over fleetSeeds program seeds.
const (
	fleetSeeds   = 3
	fleetScale   = 6
	fleetWorkers = 2
	// fleetPoll is the workers' idle re-lease interval.
	fleetPoll = 5 * time.Millisecond
	// fleetGrace bounds the coordinator's AwaitWorkers drain grace.
	fleetGrace = 5 * time.Second
)

// fleetState is the set-up a round runs from — one program seed's
// plans over a shared artifact cache — plus its reference.
type fleetState struct {
	seed  int64
	plans []fleet.Plan
	cache *core.ArtifactCache
	jobs  int
	// The single-process reference over the same plans.
	reports map[string][]trigger.Report
	store   []byte
}

// fleetSetup plans every system's campaign per program seed into one
// fresh artifact cache and warms the executors a worker builds from it
// (analysis artifacts and snapshot plans are memoized there; baselines
// are not), so every round costs the same.
func fleetSetup(tr *tracer, seeds []int64) ([]*fleetState, error) {
	cache := core.NewArtifactCache()
	var sts []*fleetState
	for _, seed := range seeds {
		st, err := fleetPlan(tr, cache, seed)
		if err != nil {
			return nil, err
		}
		sts = append(sts, st)
	}
	return sts, nil
}

func fleetPlan(tr *tracer, cache *core.ArtifactCache, seed int64) (*fleetState, error) {
	st := &fleetState{seed: seed, cache: cache}
	for _, name := range systems() {
		r, err := all.ByName(name)
		if err != nil {
			return nil, err
		}
		var plan fleet.Plan
		tr.call(-1, -1, "fleet.plan", func() {
			plan, err = core.PlanFleet(r, st.cache, core.Options{Seed: seed, Scale: fleetScale})
		})
		if err != nil {
			return nil, err
		}
		st.plans = append(st.plans, plan)
		st.jobs += len(plan.Jobs)
	}
	factory := core.FleetExecutors(st.cache, all.ByName)
	for _, plan := range st.plans {
		for _, scale := range []int{plan.Spec.Scale, plan.RetryScale} {
			if scale == 0 {
				continue
			}
			var err error
			tr.call(-1, -1, "fleet.warm", func() { _, err = factory(plan.Spec, scale) })
			if err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// fleetReference runs the same campaigns single-process, in plan order,
// on the legacy full-replay path, recording into one triage store.
func fleetReference(cfg config, st *fleetState) error {
	dir, err := roundDir(cfg, "reference")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "triage.jsonl")
	store, err := triage.OpenStore(path)
	if err != nil {
		return err
	}
	st.reports = map[string][]trigger.Report{}
	for _, plan := range st.plans {
		r, err := all.ByName(plan.Spec.System)
		if err != nil {
			return err
		}
		res := core.Run(r, core.Options{
			Config:      campaign.Config{Workers: 1, Recorder: triage.NewRecorder(store)},
			Seed:        st.seed,
			Scale:       fleetScale,
			NoSnapshots: true,
		})
		st.reports[r.Name()] = res.Reports
	}
	if err := store.Close(); err != nil {
		return err
	}
	st.store, err = os.ReadFile(path)
	return err
}

// runFleet measures whole fleet rounds.
func runFleet(cfg config) (*outcome, error) {
	seeds := programSeeds(rand.New(rand.NewSource(cfg.seed)), fleetSeeds)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{}
	var sts []*fleetState
	var err error
	out.setup, err = timeSetup(func() error {
		sts, err = fleetSetup(tr, seeds)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		if err := fleetReference(cfg, st); err != nil {
			return nil, err
		}
	}
	known := knownBugs()
	resetPeakRSS()
	out.lat, out.window = closedLoop(cfg, len(sts), func(i int) func() {
		var t *tracer
		if traced(i) {
			t = tr
		}
		virtual, check := fleetRound(cfg, sts[nth(i, len(sts), cfg.trace)], known, t, i)
		out.virt = append(out.virt, virtual)
		return func() {
			if err := check(); err != nil {
				out.fail("round %d: %v", i, err)
			}
		}
	})
	out.rssKB = loopRSSKB()
	if tr != nil {
		if err := finishTraced(cfg, tr, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetRound runs one round: coordinator, workers, persistence, then
// the read-back analytics. The returned check, run untimed, records the
// round's layer samples, checks it against the reference and removes
// its artifacts.
func fleetRound(cfg config, st *fleetState, known map[string]bool, t *tracer, op int) (virtual sim.Time, check func() error) {
	dir, err := roundDir(cfg, "round")
	if err != nil {
		return 0, func() error { return err }
	}
	failed := func(err error) (sim.Time, func() error) {
		return 0, func() error { os.RemoveAll(dir); return err }
	}
	storePath := filepath.Join(dir, "triage.jsonl")
	tracePath := filepath.Join(dir, "trace.jsonl")
	ckptDir := filepath.Join(dir, "shards")

	root := t.begin(-1, op, "op")
	defer t.end(root)
	store, err := triage.OpenStore(storePath)
	if err != nil {
		return failed(err)
	}
	trace, err := obs.OpenTrace(tracePath, false)
	if err != nil {
		store.Close()
		return failed(err)
	}
	var sink obs.Sink = trace
	var rec campaign.RunRecorder = triage.NewRecorder(store)
	factory := core.FleetExecutors(st.cache, all.ByName)
	var emitNS, recordNS atomic.Int64
	tm := &timedExecs{tr: t, op: op}
	before := readCounters()
	if t != nil {
		sink = obs.SinkFunc(func(ev obs.Event) {
			t0 := time.Now()
			trace.Emit(ev)
			emitNS.Add(int64(time.Since(t0)))
		})
		inner := rec
		rec = recorderFunc(func(rr campaign.RunRecord) {
			t0 := time.Now()
			inner.Record(rr)
			recordNS.Add(int64(time.Since(t0)))
		})
		factory = tm.wrap(factory)
	}

	c, err := fleet.New(fleet.Config{Addr: "127.0.0.1:0", Plans: st.plans, Dir: ckptDir, Sink: sink, Recorder: rec})
	if err != nil {
		store.Close()
		trace.Close()
		return failed(err)
	}
	drain := t.begin(root, op, "fleet.drain")
	tm.parent = drain
	if err := c.Start(); err != nil {
		t.end(drain)
		c.Close()
		store.Close()
		trace.Close()
		return failed(err)
	}
	var wg sync.WaitGroup
	werr := make([]error, fleetWorkers)
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		worker := &fleet.Worker{Base: "http://" + c.Addr(), Name: fmt.Sprintf("w%d", w), Factory: factory, Poll: fleetPoll}
		go func(w int) {
			defer wg.Done()
			werr[w] = worker.Run()
		}(w)
	}
	results := c.Wait()
	t.end(drain)
	t.call(root, op, "fleet.await", func() { c.AwaitWorkers(fleetGrace) })
	wg.Wait()
	stats := c.Stats()
	var closeErr error
	t.call(root, op, "campaign.close", func() {
		closeErr = firstErr(c.Close(), store.Close(), trace.Close())
	})

	var ix *triage.Index
	var loadErr error
	t.call(root, op, "triage.load", func() { ix, loadErr = triage.Load(storePath) })
	var clusters []*triage.Cluster
	if loadErr == nil {
		t.call(root, op, "triage.cluster", func() { clusters = ix.Clusters() })
	}
	var runs []failmode.RunView
	var runsErr error
	t.call(root, op, "failmode.load", func() { runs, runsErr = failmode.LoadRuns(tracePath, storePath) })
	var rep *failmode.Report
	if runsErr == nil {
		t.call(root, op, "failmode.fit", func() { _, rep = failmode.Fit(runs, failmode.DefaultConfig()) })
	}

	for _, pr := range results {
		for _, res := range pr.Results {
			virtual += res.Duration
		}
	}
	return virtual, func() error {
		defer os.RemoveAll(dir)
		if t != nil {
			t.forkMix(before, int(tm.runs.Load()))
			fleetSamples(t, tm, stats, time.Duration(t.spans[drain].End-t.spans[drain].Start), emitNS.Load(), recordNS.Load(), tracePath, ckptDir)
			if clusters != nil {
				t.value("triage.clusters", float64(len(clusters)))
			}
			if rep != nil {
				t.value("failmode.runs", float64(len(runs)))
				t.value("failmode.modes", float64(rep.TotalModes()))
			}
		}
		return checkRound(st, known, results, stats, runs, storePath, firstErr(append(werr, closeErr, loadErr, runsErr)...))
	}
}

// fleetSamples records one traced round's fleet, obs and persistence
// samples.
func fleetSamples(t *tracer, tm *timedExecs, stats fleet.Stats, drain time.Duration, emitNS, recordNS int64, tracePath, ckptDir string) {
	t.value("fleet.exec_ms", ms(time.Duration(tm.execNS.Load())))
	t.value("fleet.exec_share", float64(tm.execNS.Load())/float64(fleetWorkers*drain))
	t.value("fleet.factory_ms", ms(time.Duration(tm.factoryNS.Load())))
	t.value("fleet.leases", float64(stats.Leases))
	t.value("fleet.leased_jobs", float64(stats.LeasedJobs))
	t.value("fleet.steals", float64(stats.Steals))
	t.value("fleet.duplicates", float64(stats.Duplicates))
	t.value("obs.emit_ms", ms(time.Duration(emitNS)))
	t.value("triage.record_ms", ms(time.Duration(recordNS)))
	t.value("obs.trace_bytes", float64(fileSize(tracePath)))
	t.value("campaign.checkpoint_bytes", float64(dirSize(ckptDir)))
}

// checkRound checks a drained round against the single-process
// reference; err is the first error the round itself ran into.
func checkRound(st *fleetState, known map[string]bool, results []fleet.PlanResult, stats fleet.Stats, runs []failmode.RunView, storePath string, err error) error {
	if err != nil {
		return err
	}
	if stats.Rejected > 0 || stats.Expiries > 0 || !stats.Drained {
		return fmt.Errorf("coordinator stats: %d rejected, %d expiries, drained %v", stats.Rejected, stats.Expiries, stats.Drained)
	}
	if len(runs) != st.jobs {
		return fmt.Errorf("failmode.LoadRuns saw %d runs, the round planned %d jobs", len(runs), st.jobs)
	}
	for _, pr := range results {
		reps := make([]trigger.Report, len(pr.Results))
		for i, res := range pr.Results {
			reps[i] = trigger.ResultReport(res)
			if res.Outcome == trigger.HarnessError.String() {
				return fmt.Errorf("%s run %d: harness error: %s", pr.Spec.System, i, res.Reason)
			}
			if u := unknownBugs(known, res.Witnesses); res.Failing && len(u) > 0 {
				return fmt.Errorf("%s run %d: witnessed bugs unknown to the registry: %v", pr.Spec.System, i, u)
			}
		}
		if !reflect.DeepEqual(reps, st.reports[pr.Spec.System]) {
			return fmt.Errorf("%s: fleet reports differ from the single-process full-replay reference", pr.Spec.System)
		}
	}
	got, err := os.ReadFile(storePath)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, st.store) {
		return fmt.Errorf("triage store differs from the single-process reference (%d vs %d bytes)", len(got), len(st.store))
	}
	return nil
}

// timedExecs wraps the worker executor factory so each Execute (and the
// factory itself) is timed; SetSink is forwarded so the workers' span
// capture is unchanged.
type timedExecs struct {
	tr                *tracer
	parent, op        int
	execNS, factoryNS atomic.Int64
	runs              atomic.Int64
}

func (tm *timedExecs) wrap(f fleet.ExecutorFactory) fleet.ExecutorFactory {
	return func(spec fleet.Spec, scale int) (fleet.Executor, error) {
		t0 := time.Now()
		e, err := f(spec, scale)
		tm.factoryNS.Add(int64(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		return &timedExec{inner: e, tm: tm}, nil
	}
}

type timedExec struct {
	inner fleet.Executor
	tm    *timedExecs
}

func (e *timedExec) Execute(j fleet.Job) fleet.Result {
	id := e.tm.tr.begin(e.tm.parent, e.tm.op, "fleet.exec")
	t0 := time.Now()
	res := e.inner.Execute(j)
	d := time.Since(t0)
	e.tm.tr.end(id)
	e.tm.execNS.Add(int64(d))
	e.tm.runs.Add(1)
	e.tm.tr.value("trigger.run_ms", ms(d))
	if res.Outcome == trigger.HarnessError.String() {
		e.tm.tr.value("trigger.harness_errors", 1)
	}
	return res
}

func (e *timedExec) SetSink(s obs.Sink) {
	if ss, ok := e.inner.(interface{ SetSink(obs.Sink) }); ok {
		ss.SetSink(s)
	}
}

type recorderFunc func(campaign.RunRecord)

func (f recorderFunc) Record(rr campaign.RunRecord) { f(rr) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirSize(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		n += fileSize(filepath.Join(dir, e.Name()))
	}
	return n
}
