package all

import (
	"reflect"
	"testing"

	"repro/internal/dslog"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
)

// cloneOutcome is everything the clone contract compares between an
// uninterrupted run and one resumed from a mid-run clone.
type cloneOutcome struct {
	fp        sim.Fingerprint
	status    cluster.Status
	reason    string
	witnesses []string
}

func outcomeOf(run cluster.Run) cloneOutcome {
	return cloneOutcome{
		fp:        run.Engine().Fingerprint(),
		status:    run.Status(),
		reason:    run.FailureReason(),
		witnesses: run.Witnesses(),
	}
}

// TestEveryRunClonesAnywhere pins the cluster.Run.CloneRun contract on
// every system: a run paused at any event boundary — right after
// Start(), and at 1/8, 1/2 and 7/8 of the fault-free run — must clone,
// and the clone resumed to the end must finish exactly like the
// uninterrupted run. Snapshot campaigns only clone at pre-hit
// boundaries, so without this a closure timer scheduled mid-run, or
// model state CloneRun forgot to copy, would surface only as a silent
// fallback to full replay. The source is driven on after the clone too,
// which checks that CloneRun left it untouched.
func TestEveryRunClonesAnywhere(t *testing.T) {
	const deadline = sim.Hour
	cfg := func() cluster.Config {
		return cluster.Config{Seed: 11, Scale: 1, Probe: probe.New(), Logs: dslog.Discard()}
	}
	for _, r := range append(Runners(), Extensions()...) {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			ref := r.NewRun(cfg())
			n := cluster.Drive(ref, deadline).Steps
			want := outcomeOf(ref)
			if want.status != cluster.Succeeded {
				t.Fatalf("reference run %v (%s)", want.status, want.reason)
			}
			for _, at := range []uint64{0, n / 8, n / 2, 7 * n / 8} {
				src := r.NewRun(cfg())
				e := src.Engine()
				e.OnStep(func(sim.Time) {
					if src.Status() != cluster.Running {
						e.Stop()
					}
				})
				src.Start()
				if at > 0 {
					// The pause captureClones uses: MaxSteps=0 would mean
					// "default", so boundary 0 is the state Start() left.
					e.MaxSteps = at
					if res := e.Run(deadline); !res.Exhausted {
						t.Fatalf("run ended at %d events, before boundary %d", res.Steps, at)
					}
				}
				e2, remap, err := e.Clone()
				if err != nil {
					t.Fatalf("boundary %d/%d: %v", at, n, err)
				}
				clone := src.CloneRun(cluster.CloneContext{Eng: e2, Remap: remap, Cfg: cfg()})
				e2.MaxSteps, e.MaxSteps = 0, 0
				for i, run := range []cluster.Run{clone, src} {
					cluster.DriveResume(run, deadline)
					if got := outcomeOf(run); !reflect.DeepEqual(got, want) {
						t.Errorf("%s resumed at boundary %d/%d diverged:\n got %+v\nwant %+v",
							[]string{"clone", "source"}[i], at, n, got, want)
					}
				}
			}
		})
	}
}
