package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/systems/all"
	"repro/internal/trigger"
)

// The deep-campaign pool: every system at deepSeeds program seeds,
// injection runs at scale deepScale.
const (
	deepSeeds = 2
	deepScale = 20
)

// deepFamilies are the fault families deep-campaign mixes: a plain
// crash, a crash with the victim restarted, and a cut that holds
// crossing messages until it heals.
var deepFamilies = []struct {
	recovery  *trigger.RecoveryOptions
	partition *trigger.PartitionOptions
}{
	{},
	{recovery: &trigger.RecoveryOptions{}},
	{partition: &trigger.PartitionOptions{Mode: sim.PartitionHold}},
}

// deepJob is one injection run of the pool: a planned job and the
// Tester (with its snapshot plan) that executes it.
type deepJob struct {
	t   *trigger.Tester
	job fleet.Job
}

// deepSetup builds, per (system, program seed), the analysis, profile,
// baseline and snapshot plan, then one Tester per fault family sharing
// that plan (a plan captures only the fault-free prefix, so it serves
// every family), and returns every family's jobs.
func deepSetup(tr *tracer, seeds []int64) ([]deepJob, error) {
	var pool []deepJob
	p := pipeline{tr: tr, parent: -1, op: -1}
	for k, seed := range seeds {
		r, err := all.ByName(systems()[k%len(systems())])
		if err != nil {
			return nil, err
		}
		res, matcher := p.analysis(r, seed, deepScale)
		p.profile(r, res, seed, deepScale)
		base := p.tester(r, res, matcher, seed, deepScale)
		var before uint64
		if tr != nil {
			before = liveHeap()
		}
		plan := p.plan(base)
		if tr != nil {
			tr.value("trigger.plan_mb", float64(int64(liveHeap())-int64(before))/(1<<20))
		}
		for _, fam := range deepFamilies {
			t := *base
			t.Recovery, t.Partition, t.Snapshots = fam.recovery, fam.partition, plan
			for _, j := range t.Jobs(res.Dynamic.Points) {
				pool = append(pool, deepJob{t: &t, job: j})
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("deep-campaign: set-up planned no jobs")
	}
	return pool, nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runDeep measures single injection runs forked from prebuilt plans.
func runDeep(cfg config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := programSeeds(rng, deepSeeds*len(systems()))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out := &outcome{}
	var pool []deepJob
	var err error
	out.setup, err = timeSetup(func() error {
		pool, err = deepSetup(tr, seeds)
		return err
	})
	if err != nil {
		return nil, err
	}
	order := rng.Perm(len(pool))

	// The reference: every pool job on the legacy path — snapshots off,
	// the run replayed from t=0 — computed before the window, untimed.
	ref := make([]fleet.Result, len(pool))
	for k, dj := range pool {
		legacy := *dj.t
		legacy.Snapshots = nil
		ref[k] = legacy.Execute(dj.job)
	}
	known := knownBugs()
	resetPeakRSS()
	out.lat, out.window = closedLoop(cfg, len(order), func(i int) func() {
		k := order[nth(i, len(order), cfg.trace)]
		dj := pool[k]
		var res fleet.Result
		if tr == nil || !traced(i) {
			res = dj.t.Execute(dj.job)
		} else {
			root := tr.begin(-1, i, "op")
			before := readCounters()
			run := tr.begin(root, i, "trigger.run")
			res = dj.t.Execute(dj.job)
			tr.end(run)
			tr.forkMix(before, 1)
			tr.end(root)
			tr.value("trigger.run_ms", ms(tr.spans[run].dur()))
			if res.Outcome == trigger.HarnessError.String() {
				tr.value("trigger.harness_errors", 1)
			}
		}
		out.virt = append(out.virt, res.Duration)
		return func() {
			j := dj.job
			switch {
			case res.Outcome == trigger.HarnessError.String():
				out.fail("op %d %s %s: harness error: %s", i, j.Key(), j.Scenario, res.Reason)
			case !reflect.DeepEqual(res, ref[k]):
				out.fail("op %d %s: result differs from the full-replay reference: got %+v, want %+v", i, j.Key(), res, ref[k])
			case res.Failing && len(unknownBugs(known, res.Witnesses)) > 0:
				out.fail("op %d %s: witnessed bugs unknown to the registry: %v", i, j.Key(), unknownBugs(known, res.Witnesses))
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
