package trigger

import (
	"testing"

	"repro/internal/crashpoint"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/systems/cluster"
	"repro/internal/systems/toysys"
)

func TestOutcomeStringsAndSeverity(t *testing.T) {
	cases := map[Outcome]string{
		NotHit: "not-hit", Unresolved: "unresolved", OK: "ok",
		TimeoutIssue: "timeout-issue", UncommonException: "uncommon-exception",
		Hang: "hang", JobFailure: "job-failure",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
	for _, o := range []Outcome{JobFailure, Hang, UncommonException} {
		if !o.IsBug() {
			t.Errorf("%v not classified as bug", o)
		}
	}
	for _, o := range []Outcome{NotHit, Unresolved, OK, TimeoutIssue} {
		if o.IsBug() {
			t.Errorf("%v wrongly classified as bug", o)
		}
	}
}

func TestMeasureBaseline(t *testing.T) {
	r := &toysys.Runner{}
	b := MeasureBaseline(r, 1, 1, 3, 0)
	if b.Runs != 3 {
		t.Errorf("runs = %d", b.Runs)
	}
	if b.Status != cluster.Succeeded {
		t.Errorf("baseline status = %v", b.Status)
	}
	if b.Duration <= 0 || b.Duration > 10*sim.Second {
		t.Errorf("baseline duration = %v", b.Duration)
	}
	// The fault-free toy system throws nothing.
	if len(b.Exceptions) != 0 {
		t.Errorf("baseline exceptions = %v", b.Exceptions)
	}
}

func TestTestPointNotHit(t *testing.T) {
	r := &toysys.Runner{}
	b := MeasureBaseline(r, 1, 1, 1, 0)
	tester := &Tester{Runner: r, Baseline: b, Seed: 1, Scale: 1}
	rep := tester.TestPoint(probe.DynPoint{
		Point:    "toy.Master.handleLost#0", // never executes fault-free
		Scenario: crashpoint.PostWrite,
		Stack:    "toy.Master.handleLost",
	})
	if rep.Outcome != NotHit {
		t.Errorf("outcome = %v, want not-hit", rep.Outcome)
	}
	if rep.Injected != nil {
		t.Error("injection recorded for unexecuted point")
	}
}

func TestTestPointWrongStackNotHit(t *testing.T) {
	r := &toysys.Runner{}
	b := MeasureBaseline(r, 1, 1, 1, 0)
	tester := &Tester{Runner: r, Baseline: b, Seed: 1, Scale: 1}
	rep := tester.TestPoint(probe.DynPoint{
		Point:    toysys.PtCommitGet,
		Scenario: crashpoint.PreRead,
		Stack:    "some.other.Context", // context mismatch
	})
	if rep.Outcome != NotHit {
		t.Errorf("outcome = %v, want not-hit (stack must match)", rep.Outcome)
	}
}

func TestSummarize(t *testing.T) {
	reports := []Report{
		{Outcome: JobFailure, Witnesses: []string{"BUG-1"}},
		{Outcome: Hang, Witnesses: []string{"BUG-2"}},
		{Outcome: OK},
		{Outcome: TimeoutIssue},
		{Outcome: NotHit},
		{Outcome: JobFailure, Witnesses: []string{"BUG-1"}},
	}
	s := Summarize(reports)
	if s.Tested != 6 || s.Bugs != 3 || s.TimeoutIssues != 1 || s.NotHit != 1 {
		t.Errorf("summary = %+v", s)
	}
	if len(s.WitnessedBugs) != 2 || s.WitnessedBugs[0] != "BUG-1" || s.WitnessedBugs[1] != "BUG-2" {
		t.Errorf("witnessed = %v", s.WitnessedBugs)
	}
}

// Summary.Bugs counts failing runs (paper parity); DistinctBugs must
// collapse runs that differ only in volatile tokens — the same
// exception thrown against different hosts or timestamps is one bug.
func TestSummarizeDistinctBugs(t *testing.T) {
	dyn := probe.DynPoint{
		Point:    toysys.PtCommitGet,
		Scenario: crashpoint.PreRead,
		Stack:    "toy.Master.commitPending",
	}
	reports := []Report{
		{Dyn: dyn, Outcome: JobFailure, Target: "node1:7001",
			NewExceptions: []string{"NullPointerException@toy.Master.commitPending: worker node1:7001 missing"}},
		{Dyn: dyn, Outcome: JobFailure, Target: "node2:7002",
			NewExceptions: []string{"NullPointerException@toy.Master.commitPending: worker node2:7002 missing"}},
		{Dyn: dyn, Outcome: Hang, Target: "node1:7001"},
		{Outcome: OK},
	}
	s := Summarize(reports)
	if s.Bugs != 3 {
		t.Errorf("raw bugs = %d, want 3", s.Bugs)
	}
	if s.DistinctBugs != 2 {
		t.Errorf("distinct bugs = %d, want 2 (volatile-token variants must collapse)", s.DistinctBugs)
	}
}

func TestEvaluatePriorities(t *testing.T) {
	b := Baseline{Duration: sim.Second}
	mk := func(status cluster.Status) cluster.Run {
		return fakeRun{status: status}
	}
	if o := Evaluate(b, mk(cluster.Failed), sim.RunResult{End: sim.Second}, nil, 4); o != JobFailure {
		t.Errorf("failed run = %v", o)
	}
	if o := Evaluate(b, mk(cluster.Running), sim.RunResult{End: 20 * sim.Second}, nil, 4); o != Hang {
		t.Errorf("running run = %v", o)
	}
	if o := Evaluate(b, mk(cluster.Succeeded), sim.RunResult{End: sim.Second}, []string{"X"}, 4); o != UncommonException {
		t.Errorf("exception run = %v", o)
	}
	if o := Evaluate(b, mk(cluster.Succeeded), sim.RunResult{End: 10 * sim.Second}, nil, 4); o != TimeoutIssue {
		t.Errorf("slow run = %v", o)
	}
	if o := Evaluate(b, mk(cluster.Succeeded), sim.RunResult{End: 2 * sim.Second}, nil, 4); o != OK {
		t.Errorf("clean run = %v", o)
	}
}

type fakeRun struct{ status cluster.Status }

func (f fakeRun) Engine() *sim.Engine    { return sim.NewEngine(0) }
func (f fakeRun) Start()                 {}
func (f fakeRun) Status() cluster.Status { return f.status }
func (f fakeRun) FailureReason() string  { return "" }
func (f fakeRun) Witnesses() []string    { return nil }

func (f fakeRun) CloneRun(cluster.CloneContext) cluster.Run { return f }

func TestNewUnhandledFiltersBaselineAndHandled(t *testing.T) {
	e := sim.NewEngine(1)
	n := e.AddNode("n", 1)
	e.Throw(n.ID, "Known@x", "", false)
	e.Throw(n.ID, "Handled@y", "", true)
	e.Throw(n.ID, "Fresh@z", "", false)
	e.Throw(n.ID, "Fresh@z", "", false) // dup
	b := Baseline{Exceptions: map[string]bool{"Known@x": true}}
	got := NewUnhandled(b, e)
	if len(got) != 1 || got[0] != "Fresh@z" {
		t.Errorf("NewUnhandled = %v", got)
	}
}

func TestRandomTargetMode(t *testing.T) {
	r := &toysys.Runner{}
	b := MeasureBaseline(r, 1, 1, 1, 0)
	tester := &Tester{Runner: r, Baseline: b, Seed: 1, Scale: 1, RandomTarget: true}
	rep := tester.TestPoint(probe.DynPoint{
		Point:    toysys.PtCommitGet,
		Scenario: crashpoint.PreRead,
		Stack:    "toy.Master.commitPending",
	})
	// A random victim still injects something; the outcome depends on
	// which node dies, but the report must be well-formed.
	if rep.Outcome == NotHit {
		t.Errorf("random-target point not hit: %+v", rep)
	}
}
