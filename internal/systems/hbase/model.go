package hbase

import (
	"sync"

	"repro/internal/ir"
)

const (
	tServerName = ir.TypeID("hbase.ServerName")
	tRegionInfo = ir.TypeID("hbase.client.RegionInfo")
	tRegionTr   = ir.TypeID("hbase.master.assignment.RegionTransition")
	tMaster     = ir.TypeID("hbase.master.HMaster")
	tRS         = ir.TypeID("hbase.regionserver.HRegionServer")
	tMetrics    = ir.TypeID("hbase.regionserver.MetricsRegionServer")
	tZKWatcher  = ir.TypeID("hbase.zookeeper.ZKWatcher")
	tHashMap    = ir.TypeID("java.util.HashMap")
	tArrayList  = ir.TypeID("java.util.ArrayList")
	tString     = ir.TypeID("java.lang.String")
)

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

func buildModel() *ir.Program {
	p := ir.NewProgram("hbase")
	p.AddClass(&ir.Class{Name: tServerName})
	p.AddClass(&ir.Class{Name: tRegionInfo})
	p.AddClass(&ir.Class{
		Name: tRegionTr,
		Fields: []*ir.Field{
			{Name: "regionInfo", Type: tRegionInfo, SetOnlyInCtor: true},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tRegionTr) + ".regionInfo")},
				{Op: ir.OpReturn},
			}},
			{Name: "getRegionInfo", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpGetField, Field: ir.FieldID(string(tRegionTr) + ".regionInfo"), Use: ir.UseReturnedOnly},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{
		Name: tMetrics,
		Fields: []*ir.Field{
			{Name: "serverName", Type: tServerName, SetOnlyInCtor: true},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tMetrics) + ".serverName")},
				{Op: ir.OpReturn},
			}},
		},
	})

	fM := func(n string) ir.FieldID { return ir.FieldID(string(tMaster) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tMaster,
		Fields: []*ir.Field{
			{Name: "onlineServers", Type: tHashMap, KeyType: tServerName, ElemType: tString},
			{Name: "assignments", Type: tHashMap, KeyType: tRegionInfo, ElemType: tServerName},
		},
		Methods: []*ir.Method{
			{Name: "reportServer", Public: true, Instrs: []*ir.Instr{
				// #0 = PtOnlinePut (HBASE-22041)
				{Op: ir.OpCollOp, Field: fM("onlineServers"), CollMethod: "put"},
				logStmt("info", []string{"RegionServer ", " reported for duty"},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "activate", Public: true, Instrs: []*ir.Instr{
				// #0 = PtActiveGet (HBASE-22017)
				{Op: ir.OpCollOp, Field: fM("onlineServers"), CollMethod: "get", Use: ir.UseNormal},
				logStmt("info", []string{"Master is now active with ", " servers"},
					ir.LogArg{Name: "n", Type: tString}),
				logStmt("warn", []string{"Server ", " vanished during activation"},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "assignRegion", Public: true, Instrs: []*ir.Instr{
				// #0 = PtAssignPut
				{Op: ir.OpCollOp, Field: fM("assignments"), CollMethod: "put"},
				logStmt("info", []string{"Assigned region ", " to ", ""},
					ir.LogArg{Name: "regionInfo", Type: tRegionInfo},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "routeRequest", Public: true, Instrs: []*ir.Instr{
				// #0: null-checked with a retry path — pruned SanityCheck.
				{Op: ir.OpCollOp, Field: fM("assignments"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("warn", []string{"Retrying op ", " for ", ""},
					ir.LogArg{Name: "op", Type: tString},
					ir.LogArg{Name: "regionInfo", Type: tRegionInfo}),
				{Op: ir.OpReturn},
			}},
			{Name: "moveRegion", Public: true, Instrs: []*ir.Instr{
				// #0 = PtMoveGet (HBASE-22050)
				{Op: ir.OpCollOp, Field: fM("assignments"), CollMethod: "get", Use: ir.UseNormal},
				logStmt("info", []string{"Moving region ", " from ", " to ", ""},
					ir.LogArg{Name: "regionInfo", Type: tRegionInfo},
					ir.LogArg{Name: "src", Type: tServerName},
					ir.LogArg{Name: "dst", Type: tServerName}),
				logStmt("warn", []string{"Region ", " in transition, skipping move"},
					ir.LogArg{Name: "regionInfo", Type: tRegionInfo}),
				{Op: ir.OpReturn},
			}},
			{Name: "serverRemoved", Public: true, Instrs: []*ir.Instr{
				// #0 = PtServersRemove
				{Op: ir.OpCollOp, Field: fM("onlineServers"), CollMethod: "remove"},
				logStmt("warn", []string{"RegionServer ", " ", ", reassigning regions"},
					ir.LogArg{Name: "serverName", Type: tServerName},
					ir.LogArg{Name: "why", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "waitForServers", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fM("onlineServers"), CollMethod: "values", Use: ir.UseSanityChecked},
				logStmt("warn", []string{"Startup thread still waiting for unreachable region servers"}),
				{Op: ir.OpReturn},
			}},
			{Name: "webRegionState", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fM("assignments"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Web request for region region_1 on ", ""},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "peDone", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"PE finished ", " operations"},
					ir.LogArg{Name: "n", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fRS := func(n string) ir.FieldID { return ir.FieldID(string(tRS) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tRS,
		Fields: []*ir.Field{
			{Name: "metrics", Type: tMetrics},
			{Name: "regions", Type: tArrayList, ElemType: tRegionInfo},
		},
		Methods: []*ir.Method{
			{Name: "initMetrics", Public: true, Instrs: []*ir.Instr{
				// #0 = PtInitMetrics (HBASE-21740)
				{Op: ir.OpGetField, Field: fRS("metrics"), Use: ir.UseNormal},
				logStmt("info", []string{"Metrics source for ", " initialized"},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "openRegion", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fRS("regions"), CollMethod: "add"},
				logStmt("info", []string{"Opened region ", " on ", ""},
					ir.LogArg{Name: "regionInfo", Type: tRegionInfo},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
			{Name: "stop", Public: true, Instrs: []*ir.Instr{
				logStmt("error", []string{"RegionServer ", " aborted during initialization"},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name: tZKWatcher,
		Methods: []*ir.Method{
			{Name: "zkSession", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"ZooKeeper session established for ", ""},
					ir.LogArg{Name: "serverName", Type: tServerName}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name:       "hbase.regionserver.wal.WALWriter",
		Interfaces: []ir.TypeID{"java.io.Closeable"},
		Methods: []*ir.Method{
			{Name: "writeEdit", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "flushSync", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "close", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "appendAndSync", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: "hbase.regionserver.wal.WALWriter.writeEdit"},
				{Op: ir.OpInvoke, Callee: "hbase.regionserver.wal.WALWriter.flushSync"},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses sizes the synthesized non-meta corpus (Table 10).
const BackgroundClasses = 300

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0xB45E)
	return p.Build()
})
