package cluster

import (
	"testing"

	"repro/internal/sim"
)

func TestStatusString(t *testing.T) {
	if Running.String() != "running" || Succeeded.String() != "succeeded" || Failed.String() != "failed" {
		t.Error("status names wrong")
	}
}

func TestBaseDefaults(t *testing.T) {
	b := NewBase(Config{})
	if b.Cfg.Scale != 1 {
		t.Errorf("scale = %d, want 1", b.Cfg.Scale)
	}
	if b.Cfg.Probe == nil || b.Cfg.Logs == nil {
		t.Error("nil probe/logs not defaulted")
	}
	if b.Eng == nil {
		t.Fatal("no engine")
	}
}

func TestStatusTransitions(t *testing.T) {
	b := NewBase(Config{})
	if b.Status() != Running {
		t.Error("initial status not running")
	}
	b.Succeed()
	if b.Status() != Succeeded {
		t.Error("succeed did not stick")
	}
	b.Fail("late failure")
	if b.Status() != Failed || b.FailureReason() != "late failure" {
		t.Error("fail must override success")
	}
	b.Fail("second")
	if b.FailureReason() != "late failure" {
		t.Error("first failure reason must win")
	}
	b2 := NewBase(Config{})
	b2.Fail("boom")
	b2.Succeed()
	if b2.Status() != Failed {
		t.Error("succeed overrode failure")
	}
}

func TestWitnessesSortedUnique(t *testing.T) {
	b := NewBase(Config{})
	b.Witness("B-2")
	b.Witness("A-1")
	b.Witness("B-2")
	w := b.Witnesses()
	if len(w) != 2 || w[0] != "A-1" || w[1] != "B-2" {
		t.Errorf("witnesses = %v", w)
	}
}

// driveRun is a minimal Run for Drive tests.
type driveRun struct {
	*Base
	finishAt sim.Time
}

func (d *driveRun) Start() {
	e := d.Eng
	n := e.AddNode("n", 1)
	// Periodic noise keeps the queue non-empty, like heartbeats do.
	e.Every(n.ID, sim.Second, func() {})
	if d.finishAt > 0 {
		e.After(d.finishAt, func() { d.Succeed() })
	}
}

// CloneRun is never reached: Start schedules closure timers, so the
// engine refuses the clone first.
func (d *driveRun) CloneRun(CloneContext) Run { panic("driveRun cloned despite closure timers") }

// TestCloneRefusesClosureTimers pins Clone's error path: a run with a
// pending closure timer cannot be forked, and the caller is told so
// instead of getting a run missing its timers.
func TestCloneRefusesClosureTimers(t *testing.T) {
	d := &driveRun{Base: NewBase(Config{}), finishAt: 5 * sim.Second}
	d.Start()
	if _, ok := Clone(d, Config{}); ok {
		t.Fatal("Clone forked a run with pending closure timers")
	}
}

func TestDriveStopsOnCompletion(t *testing.T) {
	d := &driveRun{Base: NewBase(Config{}), finishAt: 5 * sim.Second}
	res := Drive(d, sim.Hour)
	if d.Status() != Succeeded {
		t.Fatal("workload did not finish")
	}
	// The run must stop promptly after completion despite periodic noise.
	if res.End > 7*sim.Second {
		t.Errorf("drive ran to %v after completion at 5s", res.End)
	}
}

func TestDriveHitsDeadlineOnHang(t *testing.T) {
	d := &driveRun{Base: NewBase(Config{})} // never finishes
	res := Drive(d, 10*sim.Second)
	if d.Status() != Running {
		t.Error("hung run changed status")
	}
	if !res.Deadline {
		t.Error("deadline not reported")
	}
}
