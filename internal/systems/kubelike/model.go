package kubelike

import (
	"sync"

	"repro/internal/ir"
)

const (
	tNodeName = ir.TypeID("k8s.types.NodeName")
	tPodUID   = ir.TypeID("k8s.types.PodUID")
	tNodeCtl  = ir.TypeID("k8s.controller.NodeController")
	tSched    = ir.TypeID("k8s.scheduler.Scheduler")
	tKubelet  = ir.TypeID("k8s.kubelet.Kubelet")
	tHashMap  = ir.TypeID("java.util.HashMap")
	tString   = ir.TypeID("java.lang.String")
)

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

func buildModel() *ir.Program {
	p := ir.NewProgram("kubelike")
	p.AddClass(&ir.Class{Name: tNodeName})
	p.AddClass(&ir.Class{Name: tPodUID})

	fNC := func(n string) ir.FieldID { return ir.FieldID(string(tNodeCtl) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tNodeCtl,
		Fields: []*ir.Field{
			{Name: "nodes", Type: tHashMap, KeyType: tNodeName, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "registerNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtNodePut
				{Op: ir.OpCollOp, Field: fNC("nodes"), CollMethod: "put"},
				logStmt("info", []string{"Node ", " registered and Ready"},
					ir.LogArg{Name: "nodeName", Type: tNodeName}),
				{Op: ir.OpReturn},
			}},
			{Name: "removeNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtNodeRemove
				{Op: ir.OpCollOp, Field: fNC("nodes"), CollMethod: "remove"},
				logStmt("warn", []string{"Node ", " ", ", evicting its pods"},
					ir.LogArg{Name: "nodeName", Type: tNodeName},
					ir.LogArg{Name: "why", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "podRunning", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"Deployment ready with ", " pods"},
					ir.LogArg{Name: "n", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fS := func(n string) ir.FieldID { return ir.FieldID(string(tSched) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tSched,
		Fields: []*ir.Field{
			{Name: "bindings", Type: tHashMap, KeyType: tPodUID, ElemType: tNodeName},
		},
		Methods: []*ir.Method{
			{Name: "bind", Public: true, Instrs: []*ir.Instr{
				// #0 = PtBindGet: the re-read of the chosen node between
				// filtering and binding, used unchecked (the seeded bug).
				{Op: ir.OpCollOp, Field: fNC("nodes"), CollMethod: "get", Use: ir.UseNormal},
				// #1 = PtBindPut
				{Op: ir.OpCollOp, Field: fS("bindings"), CollMethod: "put"},
				logStmt("info", []string{"Bound pod ", " to ", ""},
					ir.LogArg{Name: "podUID", Type: tPodUID},
					ir.LogArg{Name: "nodeName", Type: tNodeName}),
				logStmt("warn", []string{"Node ", " vanished, rescheduling ", ""},
					ir.LogArg{Name: "nodeName", Type: tNodeName},
					ir.LogArg{Name: "podUID", Type: tPodUID}),
				{Op: ir.OpReturn},
			}},
			{Name: "filter", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fNC("nodes"), CollMethod: "get", Use: ir.UseSanityChecked},
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name: tKubelet,
		Methods: []*ir.Method{
			{Name: "runPod", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"Pod ", " running on ", ""},
					ir.LogArg{Name: "podUID", Type: tPodUID},
					ir.LogArg{Name: "nodeName", Type: tNodeName}),
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses sizes the synthesized corpus.
const BackgroundClasses = 150

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0x8085)
	return p.Build()
})
