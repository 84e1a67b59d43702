package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// tinyProgram builds a small, valid program exercising the main IR
// features: hierarchy, collections, logging, invokes and IO.
func tinyProgram() *Program {
	p := NewProgram("tiny")
	p.AddClass(&Class{
		Name: "t.NodeId",
		Methods: []*Method{
			{Name: "toString", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
		},
	})
	p.AddClass(&Class{Name: "t.NodeIdPBImpl", Super: "t.NodeId"})
	p.AddClass(&Class{
		Name: "t.Scheduler",
		Fields: []*Field{
			{Name: "nodes", Type: "java.util.HashMap", KeyType: "t.NodeId", ElemType: "t.SchedulerNode"},
			{Name: "name", Type: "java.lang.String"},
		},
		Methods: []*Method{
			{
				Name:   "getScheNode",
				Public: true,
				Instrs: []*Instr{
					{Op: OpCollOp, Field: "t.Scheduler.nodes", CollMethod: "get", Use: UseReturnedOnly},
					{Op: OpReturn},
				},
			},
			{
				Name:   "completeContainer",
				Public: true,
				Instrs: []*Instr{
					{Op: OpInvoke, Callee: "t.Scheduler.getScheNode"},
					{Op: OpGetField, Field: "t.Scheduler.name", Use: UseLogOnly},
					{Op: OpLog, Log: &LogStmt{
						Level:    "info",
						Segments: []string{"Completed container ", " on node ", ""},
						Args: []LogArg{
							{Name: "containerId", Type: "java.lang.String"},
							{Name: "nodeId", Type: "t.NodeId"},
						},
					}},
					{Op: OpReturn},
				},
			},
		},
	})
	p.AddClass(&Class{
		Name:       "t.LogStream",
		Interfaces: []TypeID{"java.io.Closeable"},
		Methods: []*Method{
			{Name: "readChunk", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "writeChunk", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "close", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "seek", Public: true, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "helper", Public: false, Instrs: []*Instr{{Op: OpReturn}}},
			{Name: "copyTo", Public: true, Instrs: []*Instr{
				{Op: OpInvoke, Callee: "t.LogStream.readChunk"},
				{Op: OpInvoke, Callee: "t.LogStream.writeChunk"},
				{Op: OpInvoke, Callee: "t.LogStream.seek"},
				{Op: OpReturn},
			}},
		},
	})
	return p.Build()
}

func TestBuildAssignsIDs(t *testing.T) {
	p := tinyProgram()
	m := p.Method("t.Scheduler.getScheNode")
	if m == nil {
		t.Fatal("method not indexed")
	}
	if m.Instrs[0].ID != "t.Scheduler.getScheNode#0" {
		t.Errorf("point id = %s", m.Instrs[0].ID)
	}
	f := p.Field("t.Scheduler.nodes")
	if f == nil || f.Owner != "t.Scheduler" || !f.IsCollection() {
		t.Fatalf("field index wrong: %+v", f)
	}
}

func TestSplitPoint(t *testing.T) {
	cases := []struct {
		id  PointID
		mid MethodID
		idx int
		ok  bool
	}{
		{"a.B.c#12", "a.B.c", 12, true},
		{"A.m#0", "A.m", 0, true},
		{"A.m#3", "A.m", 3, true},
		{"A#b.m#7", "A#b.m", 7, true},
		{"nohash", "", 0, false},
		{"A.m#", "", 0, false},
		{"#3", "", 0, false},
		{"A.m#3x", "", 0, false},
		{"A.m# 3", "", 0, false},
		{"A.m#3 ", "", 0, false},
		{"A.m#+3", "", 0, false},
		{"A.m#-1", "", 0, false},
		{"A.m#03", "", 0, false},
		{"A.m#0x3", "", 0, false},
		{"A.m#99999999999999999999", "", 0, false},
	}
	for _, c := range cases {
		mid, idx, ok := SplitPoint(c.id)
		if mid != c.mid || idx != c.idx || ok != c.ok {
			t.Errorf("SplitPoint(%q) = %q %d %v, want %q %d %v", c.id, mid, idx, ok, c.mid, c.idx, c.ok)
		}
	}
}

func TestInstrLookup(t *testing.T) {
	p := tinyProgram()
	ins := p.Instr("t.Scheduler.completeContainer#0")
	if ins == nil || ins.Op != OpInvoke {
		t.Fatalf("Instr lookup = %+v", ins)
	}
	if got := p.Instr("t.Scheduler.completeContainer#3"); got == nil || got.Op != OpReturn {
		t.Errorf("Instr lookup of last instruction = %+v", got)
	}
	for _, id := range []PointID{
		"t.Missing.m#0",
		"t.Scheduler.completeContainer#4",  // past the end
		"t.Scheduler.completeContainer#03", // non-canonical index
		"t.Scheduler.completeContainer#-1",
	} {
		if p.Instr(id) != nil {
			t.Errorf("Instr(%q) succeeded", id)
		}
	}
}

// A built program is shared by every pipeline in the process; growing it
// afterwards must fail loudly.
func TestAddClassAfterBuildPanics(t *testing.T) {
	p := tinyProgram()
	defer func() {
		if recover() == nil {
			t.Error("AddClass on a built program did not panic")
		}
	}()
	p.AddClass(&Class{Name: "t.Late"})
}

func TestCallers(t *testing.T) {
	p := tinyProgram()
	callers := p.Callers("t.Scheduler.getScheNode")
	if len(callers) != 1 || callers[0].ID != "t.Scheduler.completeContainer#0" {
		t.Errorf("callers = %+v", callers)
	}
}

func TestSubtypes(t *testing.T) {
	p := tinyProgram()
	subs := p.Subtypes("t.NodeId")
	if len(subs) != 2 {
		t.Fatalf("subtypes = %v", subs)
	}
	found := false
	for _, s := range subs {
		if s == "t.NodeIdPBImpl" {
			found = true
		}
	}
	if !found {
		t.Error("PBImpl subtype missing")
	}
}

func TestSubtypesViaInterface(t *testing.T) {
	p := NewProgram("x")
	p.AddClass(&Class{Name: "x.I"})
	p.AddClass(&Class{Name: "x.Impl", Interfaces: []TypeID{"x.I"}})
	p.AddClass(&Class{Name: "x.Sub", Super: "x.Impl"})
	p.Build()
	subs := p.Subtypes("x.I")
	if len(subs) != 3 {
		t.Errorf("subtypes = %v, want I, Impl, Sub", subs)
	}
}

func TestLogStmtPattern(t *testing.T) {
	p := tinyProgram()
	logs := p.LogStmts()
	if len(logs) != 1 {
		t.Fatalf("log stmts = %d", len(logs))
	}
	want := "Completed container (.*) on node (.*)"
	if got := logs[0].Log.Pattern(); got != want {
		t.Errorf("pattern = %q, want %q", got, want)
	}
}

func TestCensus(t *testing.T) {
	p := tinyProgram()
	c := p.Census()
	if c.Types != 4 {
		t.Errorf("types = %d, want 4", c.Types)
	}
	if c.Fields != 2 {
		t.Errorf("fields = %d, want 2", c.Fields)
	}
	// Access points: 1 collop + 1 getfield.
	if c.AccessPoints != 2 {
		t.Errorf("access points = %d, want 2", c.AccessPoints)
	}
}

func TestIOCensus(t *testing.T) {
	p := tinyProgram()
	c := p.IOCensus()
	if c.IOClasses != 1 {
		t.Errorf("IO classes = %d, want 1", c.IOClasses)
	}
	// readChunk, writeChunk, close are IO methods; seek and helper are not.
	if c.IOMethods != 3 {
		t.Errorf("IO methods = %d, want 3", c.IOMethods)
	}
	// copyTo calls readChunk, writeChunk (IO) and seek (not IO).
	if c.StaticIOs != 2 {
		t.Errorf("static IO points = %d, want 2", c.StaticIOs)
	}
}

func TestValidateCleanModel(t *testing.T) {
	if errs := tinyProgram().Validate(); len(errs) != 0 {
		t.Errorf("unexpected validation errors: %v", errs)
	}
}

func TestValidateCatchesBrokenModel(t *testing.T) {
	p := NewProgram("bad")
	p.AddClass(&Class{
		Name:   "b.C",
		Fields: []*Field{{Name: "s", Type: "java.lang.String"}},
		Methods: []*Method{{Name: "m", Instrs: []*Instr{
			{Op: OpGetField, Field: "b.C.missing"},
			{Op: OpCollOp, Field: "b.C.s", CollMethod: "get"},
			{Op: OpInvoke, Callee: "b.C.nothere"},
			{Op: OpLog, Log: &LogStmt{Segments: []string{"only one"}, Args: []LogArg{{Name: "x"}}}},
		}}},
	})
	errs := p.Validate()
	if len(errs) != 4 {
		t.Fatalf("validation errors = %d (%v), want 4", len(errs), errs)
	}
}

func TestClassifyCollMethod(t *testing.T) {
	cases := map[string]CollAccess{
		"get":         CollRead,
		"getOrDef":    CollRead,
		"peek":        CollRead,
		"poll":        CollRead,
		"values":      CollRead,
		"isEmpty":     CollRead,
		"containsKey": CollRead,
		"put":         CollWrite,
		"putIfAbsent": CollWrite,
		"add":         CollWrite,
		"remove":      CollWrite,
		"clear":       CollWrite,
		"offer":       CollWrite,
		"push":        CollWrite,
		"copyInto":    CollWrite,
		"iterator":    CollNone,
	}
	for name, want := range cases {
		if got := ClassifyCollMethod(name); got != want {
			t.Errorf("ClassifyCollMethod(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestClassifyCollMethodProperty(t *testing.T) {
	// Property: every Table 3 keyword classifies as itself regardless of
	// suffix and case of the suffix.
	f := func(suffix string) bool {
		suffix = strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
				return r
			}
			return -1
		}, suffix)
		for _, kw := range CollReadKeywords {
			got := ClassifyCollMethod(kw + suffix)
			if got == CollNone {
				return false
			}
		}
		for _, kw := range CollWriteKeywords {
			if ClassifyCollMethod(kw+suffix) != CollWrite {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsBaseType(t *testing.T) {
	if !IsBaseType("java.lang.String") || IsBaseType("t.NodeId") {
		t.Error("base type classification wrong")
	}
}

func TestSynthesizeBackground(t *testing.T) {
	p := NewProgram("synth")
	SynthesizeBackground(p, 50, 7)
	if errs := p.Validate(); len(errs) != 0 {
		t.Fatalf("background corpus invalid: %v", errs)
	}
	c := p.Census()
	if c.Types != 50 {
		t.Errorf("types = %d, want 50", c.Types)
	}
	if c.Fields == 0 || c.AccessPoints == 0 {
		t.Error("background corpus empty")
	}
	io := p.IOCensus()
	if io.IOClasses == 0 || io.IOMethods == 0 || io.StaticIOs == 0 {
		t.Errorf("expected IO classes in background corpus: %+v", io)
	}
}

func TestSynthesizeBackgroundDeterministic(t *testing.T) {
	a := NewProgram("s")
	SynthesizeBackground(a, 20, 3)
	b := NewProgram("s")
	SynthesizeBackground(b, 20, 3)
	ca, cb := a.Census(), b.Census()
	if ca != cb {
		t.Errorf("census differs across runs: %+v vs %+v", ca, cb)
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := NewProgram("d")
	p.AddClass(&Class{Name: "d.C"})
	p.AddClass(&Class{Name: "d.C"})
}

func TestOpcodeAndUseStrings(t *testing.T) {
	if OpGetField.String() != "getfield" || OpCollOp.String() != "collop" {
		t.Error("opcode names wrong")
	}
	if UseSanityChecked.String() != "sanity-checked" {
		t.Error("use kind names wrong")
	}
	if CollRead.String() != "read" || CollWrite.String() != "write" || CollNone.String() != "none" {
		t.Error("coll access names wrong")
	}
}
