package metainfo

import (
	"testing"
	"testing/quick"

	"repro/internal/dslog"
	"repro/internal/ir"
	"repro/internal/logparse"
)

var testHosts = []string{"node0", "node1", "node2", "node3", "node4"}

func TestGraphNodeValue(t *testing.T) {
	g := NewGraph(testHosts)
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"node3:42349", "node3:42349", true},
		{"node3", "node3", true},
		{"NM@node1:8080", "node1:8080", true},
		{"container_1_3", "", false},
		{"mynode3x", "", false}, // word-boundary guard
		{"node3:", "node3", true},
	}
	for _, c := range cases {
		got, ok := g.NodeValue(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("NodeValue(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestGraphObserveFig6(t *testing.T) {
	// Replay the Fig. 5(c) instances and expect the Fig. 6 tables.
	g := NewGraph(testHosts)
	g.Observe([]string{"node3", "node3:42349"})
	g.Observe([]string{"node4", "node4:42349"})
	g.Observe([]string{"container_3", "node3:42349"})
	g.Observe([]string{"container_3", "attempt_3"}) // transitive
	g.Observe([]string{"container_4", "node4:42349"})
	g.Observe([]string{"container_4", "attempt_4"})
	g.Observe([]string{"jvm_m_4", "attempt_4"})
	g.Observe([]string{"orphan_value"}) // discarded

	nodes := g.Nodes()
	if len(nodes) != 2 || nodes[0] != "node3:42349" || nodes[1] != "node4:42349" {
		t.Fatalf("nodes = %v", nodes)
	}
	assoc := g.Associations()
	wantAssoc := map[string]string{
		"container_3": "node3:42349",
		"attempt_3":   "node3:42349",
		"container_4": "node4:42349",
		"attempt_4":   "node4:42349",
		"jvm_m_4":     "node4:42349",
	}
	if len(assoc) != len(wantAssoc) {
		t.Fatalf("assoc = %v", assoc)
	}
	for k, v := range wantAssoc {
		if assoc[k] != v {
			t.Errorf("assoc[%q] = %q, want %q", k, assoc[k], v)
		}
	}
	if n, ok := g.NodeOf("attempt_3"); !ok || n != "node3:42349" {
		t.Errorf("NodeOf(attempt_3) = %q,%v", n, ok)
	}
	if n, ok := g.NodeOf("node4:42349"); !ok || n != "node4:42349" {
		t.Errorf("NodeOf(node) = %q,%v", n, ok)
	}
	if _, ok := g.NodeOf("orphan_value"); ok {
		t.Error("orphan value associated")
	}
}

func TestGraphBareHostUpgrade(t *testing.T) {
	g := NewGraph(testHosts)
	// A bare host is seen before its host:port form.
	g.Observe([]string{"node2", "task_9"})
	g.Observe([]string{"node2:7070"})
	if n, ok := g.NodeOf("task_9"); !ok || n != "node2:7070" {
		t.Errorf("NodeOf(task_9) = %q,%v, want upgraded node2:7070", n, ok)
	}
	// Later bare-host sightings canonicalize to host:port.
	if nv, ok := g.NodeValue("node2"); !ok || nv != "node2:7070" {
		t.Errorf("NodeValue(node2) = %q,%v", nv, ok)
	}
}

// yarnMini is a miniature Yarn model used across the inference tests: it
// has the Fig. 5 logging statements, a PBImpl subtype, a collection field
// keyed by NodeId, a ctor-set-field class (RMContainerImpl), and a
// base-typed logged field.
func yarnMini() *ir.Program { return yarnMiniModel().Build() }

// yarnMiniModel is yarnMini before Build, so tests can add classes (a
// built program is immutable).
func yarnMiniModel() *ir.Program {
	p := ir.NewProgram("yarnmini")
	p.AddClass(&ir.Class{Name: "yarn.api.records.NodeId"})
	p.AddClass(&ir.Class{Name: "yarn.api.records.NodeIdPBImpl", Super: "yarn.api.records.NodeId"})
	p.AddClass(&ir.Class{Name: "yarn.api.records.ContainerId"})
	p.AddClass(&ir.Class{Name: "mapreduce.v2.api.records.TaskAttemptId"})
	p.AddClass(&ir.Class{Name: "yarn.SchedulerNode"})
	p.AddClass(&ir.Class{
		Name: "yarn.RMContainerImpl",
		Fields: []*ir.Field{
			{Name: "containerId", Type: "yarn.api.records.ContainerId", SetOnlyInCtor: true},
			{Name: "diagnostics", Type: "java.lang.String"},
		},
		Methods: []*ir.Method{{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
			{Op: ir.OpPutField, Field: "yarn.RMContainerImpl.containerId"},
			{Op: ir.OpReturn},
		}}},
	})
	p.AddClass(&ir.Class{
		Name: "yarn.AbstractYarnScheduler",
		Fields: []*ir.Field{
			{Name: "nodes", Type: "java.util.HashMap",
				KeyType: "yarn.api.records.NodeId", ElemType: "yarn.SchedulerNode"},
			{Name: "clusterUrl", Type: "java.lang.String"},
		},
		Methods: []*ir.Method{{Name: "getScheNode", Public: true, Instrs: []*ir.Instr{
			{Op: ir.OpCollOp, Field: "yarn.AbstractYarnScheduler.nodes", CollMethod: "get", Use: ir.UseReturnedOnly},
			{Op: ir.OpReturn},
		}}},
	})
	p.AddClass(&ir.Class{
		Name:   "yarn.NMContext",
		Fields: []*ir.Field{{Name: "webPort", Type: "java.lang.String"}},
		Methods: []*ir.Method{{Name: "report", Instrs: []*ir.Instr{
			{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
				Segments: []string{"NodeManager from ", " registered as ", ""},
				Args: []ir.LogArg{
					{Name: "host", Type: "java.lang.String"},
					{Name: "nodeId", Type: "yarn.api.records.NodeId"},
				}}},
			{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
				Segments: []string{"Assigned container ", " on host ", ""},
				Args: []ir.LogArg{
					{Name: "containerId", Type: "yarn.api.records.ContainerId"},
					{Name: "nodeId", Type: "yarn.api.records.NodeId"},
				}}},
			{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
				Segments: []string{"Assigned container ", " to ", ""},
				Args: []ir.LogArg{
					{Name: "containerId", Type: "yarn.api.records.ContainerId"},
					{Name: "tId", Type: "mapreduce.v2.api.records.TaskAttemptId"},
				}}},
			{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
				Segments: []string{"Web port of ", " is ", ""},
				Args: []ir.LogArg{
					{Name: "nodeId", Type: "yarn.api.records.NodeId"},
					{Name: "webPort", Type: "java.lang.String", Field: "yarn.NMContext.webPort"},
				}}},
			{Op: ir.OpReturn},
		}}},
	})
	// A class unrelated to meta-info: must stay out of the closure.
	p.AddClass(&ir.Class{
		Name:   "yarn.util.Checksum",
		Fields: []*ir.Field{{Name: "sum", Type: "java.lang.Long"}},
	})
	return p
}

func parse(p *ir.Program, lines []string) []*logparse.Match {
	m := logparse.NewMatcher(logparse.ExtractPatterns(p))
	session := m.NewSession()
	var out []*logparse.Match
	for _, l := range lines {
		if mt := session.Match(dslog.Record{Text: l}); mt != nil {
			out = append(out, mt)
		}
	}
	return out
}

var fig5Lines = []string{
	"NodeManager from node3 registered as node3:42349",
	"NodeManager from node4 registered as node4:42349",
	"Assigned container container_3 on host node3:42349",
	"Assigned container container_3 to attempt_3",
	"Assigned container container_4 on host node4:42349",
	"Assigned container container_4 to attempt_4",
	"Web port of node3:42349 is 8042",
}

func TestInferSeedsAndClosure(t *testing.T) {
	p := yarnMini()
	matches := parse(p, fig5Lines)
	if len(matches) != len(fig5Lines) {
		t.Fatalf("parsed %d of %d lines", len(matches), len(fig5Lines))
	}
	a := Infer(p, matches, testHosts)

	wantMeta := []struct {
		t       ir.TypeID
		fromLog bool
	}{
		{"yarn.api.records.NodeId", true},
		{"yarn.api.records.ContainerId", true},
		{"mapreduce.v2.api.records.TaskAttemptId", true},
		{"yarn.api.records.NodeIdPBImpl", false}, // subtype
		{"yarn.RMContainerImpl", false},          // ctor-set field
		{"yarn.NMContext", true},                 // container of logged base field
	}
	for _, w := range wantMeta {
		ti := a.Types[w.t]
		if ti == nil {
			t.Errorf("type %s not inferred (have %v)", w.t, a.MetaTypes())
			continue
		}
		if ti.FromLog != w.fromLog {
			t.Errorf("type %s FromLog = %v, want %v (via %s)", w.t, ti.FromLog, w.fromLog, ti.Via)
		}
	}
	// NMContext is actually identified through the logged base field, so
	// it carries FromLog provenance; adjust expectation: check presence only.
	if !a.IsMetaType("yarn.NMContext") {
		t.Error("NMContext missing")
	}
	// Base types must never become meta-info types.
	if a.IsMetaType("java.lang.String") || a.IsMetaType("java.lang.Long") {
		t.Error("base type leaked into meta-info types")
	}
	// Unrelated class stays out.
	if a.IsMetaType("yarn.util.Checksum") {
		t.Error("background class inferred as meta-info")
	}
	// SchedulerNode is not logged and has no derivation path.
	if a.IsMetaType("yarn.SchedulerNode") {
		t.Error("SchedulerNode wrongly inferred")
	}
}

func TestInferFields(t *testing.T) {
	p := yarnMini()
	a := Infer(p, parse(p, fig5Lines), testHosts)
	// nodes: HashMap keyed by NodeId.
	if !a.IsMetaField("yarn.AbstractYarnScheduler.nodes") {
		t.Error("scheduler nodes map not a meta-info field")
	}
	// containerId: typed ContainerId.
	if !a.IsMetaField("yarn.RMContainerImpl.containerId") {
		t.Error("containerId not a meta-info field")
	}
	// webPort: base-typed but logged with a field link.
	if !a.IsMetaField("yarn.NMContext.webPort") {
		t.Error("logged base-typed field not meta-info")
	}
	// Plain string field with no log link must not be meta.
	if a.IsMetaField("yarn.AbstractYarnScheduler.clusterUrl") {
		t.Error("clusterUrl wrongly meta-info")
	}
	if a.IsMetaField("yarn.RMContainerImpl.diagnostics") {
		t.Error("diagnostics wrongly meta-info")
	}
}

func TestKindGrouping(t *testing.T) {
	p := yarnMini()
	a := Infer(p, parse(p, fig5Lines), testHosts)
	kinds := a.Kinds()
	// Node kind groups NodeId and its subtype.
	nodeKind := kinds["Node"]
	if len(nodeKind) < 2 {
		t.Errorf("Node kind = %v", nodeKind)
	}
	// Container kind groups ContainerId and RMContainerImpl.
	foundRM := false
	for _, ti := range kinds["Container"] {
		if ti.Type == "yarn.RMContainerImpl" {
			foundRM = true
		}
	}
	if !foundRM {
		t.Errorf("Container kind = %v", kinds["Container"])
	}
}

func TestMetaAccessPointsAndCensus(t *testing.T) {
	p := yarnMini()
	a := Infer(p, parse(p, fig5Lines), testHosts)
	pts := a.MetaAccessPoints()
	// nodes.get (collop), putfield containerId in ctor.
	want := map[ir.PointID]bool{
		"yarn.AbstractYarnScheduler.getScheNode#0": true,
		"yarn.RMContainerImpl.<init>#0":            true,
	}
	if len(pts) != len(want) {
		t.Fatalf("access points = %v", pts)
	}
	for _, ins := range pts {
		if !want[ins.ID] {
			t.Errorf("unexpected access point %s", ins.ID)
		}
	}
	c := a.Census()
	if c.AccessPoints != 2 || c.Fields != 3 {
		t.Errorf("census = %+v", c)
	}
}

func TestInferNoLogsNoMeta(t *testing.T) {
	p := yarnMini()
	a := Infer(p, nil, testHosts)
	if len(a.Types) != 0 || len(a.Fields) != 0 {
		t.Errorf("inference from empty logs produced %d types, %d fields",
			len(a.Types), len(a.Fields))
	}
}

func TestBackgroundCorpusFullyPruned(t *testing.T) {
	p := yarnMiniModel()
	ir.SynthesizeBackground(p, 100, 11)
	a := Infer(p, parse(p, fig5Lines), testHosts)
	for _, ti := range a.MetaTypes() {
		if kind := string(ti.Type); len(kind) > 0 &&
			containsSub(kind, "Background") {
			t.Errorf("background class %s inferred as meta-info", ti.Type)
		}
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestKindOf(t *testing.T) {
	cases := map[ir.TypeID]string{
		"yarn.api.records.NodeId":                "Node",
		"yarn.api.records.ContainerIdPBImpl":     "Container",
		"yarn.server.RMAppImpl":                  "RMApp",
		"mapreduce.v2.api.records.TaskAttemptId": "TaskAttempt",
		"hdfs.protocol.DatanodeInfo":             "Datanode",
	}
	for in, want := range cases {
		if got := kindOf(in); got != want {
			t.Errorf("kindOf(%s) = %q, want %q", in, got, want)
		}
	}
}

// Property: Observe never associates a value to a node that was never
// mentioned, and NodeOf is stable across repeated observations.
func TestGraphProperty(t *testing.T) {
	f := func(vals []string) bool {
		g := NewGraph(testHosts)
		g.Observe(vals)
		before := g.Associations()
		g.Observe(vals) // idempotent for the same instance
		after := g.Associations()
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
