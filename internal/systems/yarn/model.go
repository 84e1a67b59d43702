package yarn

import (
	"sync"

	"repro/internal/ir"
)

// Short type aliases for the model.
const (
	tNodeID     = ir.TypeID("yarn.api.records.NodeId")
	tNodeIDPB   = ir.TypeID("yarn.api.records.impl.pb.NodeIdPBImpl")
	tAppID      = ir.TypeID("yarn.api.records.ApplicationId")
	tAppIDPB    = ir.TypeID("yarn.api.records.impl.pb.ApplicationIdPBImpl")
	tAttemptID  = ir.TypeID("yarn.api.records.ApplicationAttemptId")
	tAttemptPB  = ir.TypeID("yarn.api.records.impl.pb.ApplicationAttemptIdPBImpl")
	tContID     = ir.TypeID("yarn.api.records.ContainerId")
	tContIDPB   = ir.TypeID("yarn.api.records.impl.pb.ContainerIdPBImpl")
	tTaskID     = ir.TypeID("mapreduce.v2.api.records.TaskId")
	tTAttemptID = ir.TypeID("mapreduce.v2.api.records.TaskAttemptId")
	tJVMID      = ir.TypeID("mapreduce.JVMId")
	tSchedNode  = ir.TypeID("yarn.server.resourcemanager.scheduler.SchedulerNode")
	tRMApp      = ir.TypeID("yarn.server.resourcemanager.rmapp.RMAppImpl")
	tRMAttempt  = ir.TypeID("yarn.server.resourcemanager.rmapp.attempt.RMAppAttemptImpl")
	tRM         = ir.TypeID("yarn.resourcemanager.ResourceManager")
	tNM         = ir.TypeID("yarn.server.nodemanager.NodeManager")
	tAM         = ir.TypeID("mapreduce.v2.app.MRAppMaster")
	tContainer  = ir.TypeID("yarn.server.nodemanager.containermanager.ContainerImpl")
	tHashMap    = ir.TypeID("java.util.HashMap")
	tHashSet    = ir.TypeID("java.util.HashSet")
	tArrayList  = ir.TypeID("java.util.ArrayList")
	tString     = ir.TypeID("java.lang.String")
)

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

// buildModel constructs the hand-written part of the Yarn IR.
func buildModel() *ir.Program {
	p := ir.NewProgram("yarn")

	// Record types, with the PBImpl subtypes of Table 2.
	for _, t := range []ir.TypeID{tNodeID, tAppID, tAttemptID, tContID, tTaskID, tTAttemptID, tJVMID} {
		p.AddClass(&ir.Class{Name: t})
	}
	p.AddClass(&ir.Class{Name: tNodeIDPB, Super: tNodeID})
	p.AddClass(&ir.Class{Name: tAppIDPB, Super: tAppID})
	p.AddClass(&ir.Class{Name: tAttemptPB, Super: tAttemptID})
	p.AddClass(&ir.Class{Name: tContIDPB, Super: tContID})

	p.AddClass(&ir.Class{
		Name: tSchedNode,
		Fields: []*ir.Field{
			{Name: "nodeId", Type: tNodeID, SetOnlyInCtor: true},
			{Name: "containers", Type: tArrayList, ElemType: tContID},
			{Name: "resources", Type: "java.lang.Integer"},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tSchedNode) + ".nodeId")},
				{Op: ir.OpReturn},
			}},
			// A read of the ctor-set nodeId: pruned by the Constructor
			// optimization.
			{Name: "getNodeID", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpGetField, Field: ir.FieldID(string(tSchedNode) + ".nodeId"), Use: ir.UseReturnedOnly},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{
		Name: tRMApp,
		Fields: []*ir.Field{
			{Name: "applicationId", Type: tAppID, SetOnlyInCtor: true},
			{Name: "currentAttempt", Type: tRMAttempt},
			{Name: "state", Type: tString},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tRMApp) + ".applicationId")},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{
		Name: tRMAttempt,
		Fields: []*ir.Field{
			{Name: "attemptId", Type: tAttemptID, SetOnlyInCtor: true},
			{Name: "masterContainer", Type: tContID},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tRMAttempt) + ".attemptId")},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{Name: tContainer})

	fRM := func(n string) ir.FieldID { return ir.FieldID(string(tRM) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tRM,
		Fields: []*ir.Field{
			{Name: "nodes", Type: tHashMap, KeyType: tNodeID, ElemType: tSchedNode},
			{Name: "apps", Type: tHashMap, KeyType: tAppID, ElemType: tRMApp},
			{Name: "appCache", Type: tHashSet, ElemType: tAttemptID},
			{Name: "clusterTimeStamp", Type: "java.lang.Long"},
		},
		Methods: []*ir.Method{
			{Name: "registerNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtNodesPut
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "put"},
				logStmt("info", []string{"NodeManager from ", " registered as ", ""},
					ir.LogArg{Name: "host", Type: tString},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				// A meta-info read used only in logging ("x nodes now
				// active"): pruned as Unused.
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "values", Use: ir.UseLogOnly},
				{Op: ir.OpReturn},
			}},
			{Name: "completeContainer", Public: true, Instrs: []*ir.Instr{
				// #0 = PtCompleteGet (YARN-9164: unchecked use)
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "get", Use: ir.UseNormal},
				{Op: ir.OpCollOp, Field: ir.FieldID(string(tSchedNode) + ".containers"), CollMethod: "remove"},
				logStmt("info", []string{"Container ", " completed on ", ""},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				{Op: ir.OpReturn},
			}},
			{Name: "updateNodeStats", Public: true, Instrs: []*ir.Instr{
				// #0 = PtStatsGet (YARN-5918)
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "get", Use: ir.UseNormal},
				logStmt("debug", []string{"Node ", " has ", " units free"},
					ir.LogArg{Name: "nodeId", Type: tNodeID},
					ir.LogArg{Name: "free", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "allocate", Public: true, Instrs: []*ir.Instr{
				// #0: appCache existence check — sanity-checked.
				{Op: ir.OpCollOp, Field: fRM("appCache"), CollMethod: "contains", Use: ir.UseSanityChecked},
				// #1 = PtAllocateCur (YARN-9238: currentAttempt used as
				// if it were the requested attempt)
				{Op: ir.OpGetField, Field: ir.FieldID(string(tRMApp) + ".currentAttempt"), Use: ir.UseNormal},
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tRM) + ".pickNode")},
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tRM) + ".newContainer")},
				// #4 = PtAllocNode (YARN-9193: the picked node used
				// without re-validation after the selection)
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "get", Use: ir.UseNormal},
				{Op: ir.OpReturn},
			}},
			{Name: "pickNode", Public: false, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "get", Use: ir.UseSanityChecked},
				{Op: ir.OpReturn},
			}},
			{Name: "newContainer", Public: false, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: ir.FieldID(string(tSchedNode) + ".containers"), CollMethod: "add"},
				logStmt("info", []string{"Assigned container ", " on host ", ""},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				{Op: ir.OpReturn},
			}},
			{Name: "nodeRemoved", Public: true, Instrs: []*ir.Instr{
				// #0 = PtNodesRemove
				{Op: ir.OpCollOp, Field: fRM("nodes"), CollMethod: "remove"},
				logStmt("warn", []string{"NodeManager ", " ", ", deactivating node"},
					ir.LogArg{Name: "nodeId", Type: tNodeID},
					ir.LogArg{Name: "why", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "submitApp", Public: true, Instrs: []*ir.Instr{
				// #0 = PtAppsPut
				{Op: ir.OpCollOp, Field: fRM("apps"), CollMethod: "put"},
				logStmt("info", []string{"Submitted application ", ""},
					ir.LogArg{Name: "applicationId", Type: tAppID}),
				logStmt("info", []string{"Created attempt ", " for application ", ""},
					ir.LogArg{Name: "attemptId", Type: tAttemptID},
					ir.LogArg{Name: "applicationId", Type: tAppID}),
				{Op: ir.OpCollOp, Field: fRM("appCache"), CollMethod: "add"},
				{Op: ir.OpReturn},
			}},
			{Name: "failAttempt", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fRM("appCache"), CollMethod: "remove"},
				logStmt("warn", []string{"Attempt ", " failed, scheduling retry"},
					ir.LogArg{Name: "attemptId", Type: tAttemptID}),
				logStmt("info", []string{"Created attempt ", " for application ", ""},
					ir.LogArg{Name: "attemptId", Type: tAttemptID},
					ir.LogArg{Name: "applicationId", Type: tAppID}),
				{Op: ir.OpCollOp, Field: fRM("appCache"), CollMethod: "add"},
				{Op: ir.OpReturn},
			}},
			{Name: "launchAM", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tRM) + ".pickNode")},
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tRM) + ".newContainer")},
				{Op: ir.OpPutField, Field: ir.FieldID(string(tRMAttempt) + ".masterContainer")},
				logStmt("info", []string{"Attempt ", " launched in container ", ""},
					ir.LogArg{Name: "attemptId", Type: tAttemptID},
					ir.LogArg{Name: "containerId", Type: tContID}),
				{Op: ir.OpReturn},
			}},
			{Name: "webAppState", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fRM("apps"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Web request for application ", " in state ", ""},
					ir.LogArg{Name: "applicationId", Type: tAppID},
					ir.LogArg{Name: "state", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "appDone", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fRM("apps"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Application ", " completed successfully"},
					ir.LogArg{Name: "applicationId", Type: tAppID}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fNM := func(n string) ir.FieldID { return ir.FieldID(string(tNM) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tNM,
		Fields: []*ir.Field{
			{Name: "containers", Type: tHashMap, KeyType: tContID, ElemType: tContainer},
		},
		Methods: []*ir.Method{
			{Name: "launchContainer", Public: true, Instrs: []*ir.Instr{
				// #0 = PtContainersPut
				{Op: ir.OpCollOp, Field: fNM("containers"), CollMethod: "put"},
				logStmt("info", []string{"Launching container ", " on ", ""},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				logStmt("info", []string{"JVM with ID: jvm_", " given task: ", ""},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fAM := func(n string) ir.FieldID { return ir.FieldID(string(tAM) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tAM,
		Fields: []*ir.Field{
			{Name: "commits", Type: tHashMap, KeyType: tTaskID, ElemType: tTAttemptID},
			{Name: "successAttempts", Type: tHashMap, KeyType: tTaskID, ElemType: tTAttemptID},
			{Name: "tasks", Type: tArrayList, ElemType: tTaskID},
		},
		Methods: []*ir.Method{
			{Name: "amInit", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"ApplicationMaster for ", " running at ", ""},
					ir.LogArg{Name: "applicationId", Type: tAppID},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				{Op: ir.OpReturn},
			}},
			{Name: "assignContainer", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fAM("tasks"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Assigned container ", " to ", ""},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID}),
				{Op: ir.OpReturn},
			}},
			{Name: "commitPending", Public: true, Instrs: []*ir.Instr{
				// #0 = PtCommitsPut (MR-3858)
				{Op: ir.OpCollOp, Field: fAM("commits"), CollMethod: "put"},
				logStmt("warn", []string{"Rejecting commit of ", " for ", ""},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID},
					ir.LogArg{Name: "taskId", Type: tTaskID}),
				{Op: ir.OpReturn},
			}},
			{Name: "doneCommit", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fAM("commits"), CollMethod: "get", Use: ir.UseSanityChecked},
				// #1 = PtCommitsRemove
				{Op: ir.OpCollOp, Field: fAM("commits"), CollMethod: "remove"},
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tAM) + ".taskDone")},
				logStmt("warn", []string{"Stale doneCommit of ", ""},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID}),
				{Op: ir.OpReturn},
			}},
			{Name: "taskDone", Public: true, Instrs: []*ir.Instr{
				// #0 = PtSuccessPut (timeout issue)
				{Op: ir.OpCollOp, Field: fAM("successAttempts"), CollMethod: "put"},
				logStmt("info", []string{"Task ", " committed by ", ""},
					ir.LogArg{Name: "taskId", Type: tTaskID},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID}),
				{Op: ir.OpReturn},
			}},
			{Name: "containerLost", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fAM("tasks"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("warn", []string{"Container ", " of ", " lost; retrying task"},
					ir.LogArg{Name: "containerId", Type: tContID},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID}),
				{Op: ir.OpReturn},
			}},
			{Name: "reduceFetch", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fAM("successAttempts"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Starting reduce, fetching ", " map outputs"},
					ir.LogArg{Name: "n", Type: tString}),
				logStmt("warn", []string{"Failed to fetch output of ", " from ", ", retrying"},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID},
					ir.LogArg{Name: "nodeId", Type: tNodeID}),
				logStmt("warn", []string{"Too many fetch failures for ", "; re-executing ", ""},
					ir.LogArg{Name: "taskAttemptId", Type: tTAttemptID},
					ir.LogArg{Name: "taskId", Type: tTaskID}),
				{Op: ir.OpReturn},
			}},
		},
	})

	// A hand-written IO class so the IO census has a stable anchor even
	// without the synthesized corpus.
	p.AddClass(&ir.Class{
		Name:       "yarn.logaggregation.AggregatedLogWriter",
		Interfaces: []ir.TypeID{"java.io.Closeable"},
		Methods: []*ir.Method{
			{Name: "writeEntry", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "flushAll", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "close", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "rollLogs", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: "yarn.logaggregation.AggregatedLogWriter.writeEntry"},
				{Op: ir.OpInvoke, Callee: "yarn.logaggregation.AggregatedLogWriter.flushAll"},
				{Op: ir.OpInvoke, Callee: "yarn.logaggregation.AggregatedLogWriter.close"},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses is the size of the synthesized non-meta-info corpus
// added to the model for census realism (Table 10: meta-info types are
// ~1% of all types in a real codebase).
const BackgroundClasses = 400

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0xCAFE)
	return p.Build()
})
