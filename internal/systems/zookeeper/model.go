package zookeeper

import (
	"sync"

	"repro/internal/ir"
)

const (
	tZNode    = ir.TypeID("zookeeper.data.ZNode")
	tDataTree = ir.TypeID("zookeeper.server.DataTree")
	tLeader   = ir.TypeID("zookeeper.server.quorum.Leader")
	tPeer     = ir.TypeID("zookeeper.server.quorum.QuorumPeer")
	tHashMap  = ir.TypeID("java.util.HashMap")
	tString   = ir.TypeID("java.lang.String")
)

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

// buildModel reflects the paper's observation about ZooKeeper logging:
// nodes are logged through plain strings (the paper notes they are mere
// Integers), so only ZNode-typed variables become meta-info, and the
// meta-info census stays tiny (Table 10: 3 types, 13 fields).
func buildModel() *ir.Program {
	p := ir.NewProgram("zookeeper")
	p.AddClass(&ir.Class{Name: tZNode})

	fDT := func(n string) ir.FieldID { return ir.FieldID(string(tDataTree) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tDataTree,
		Fields: []*ir.Field{
			{Name: "nodes", Type: tHashMap, KeyType: tZNode, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "createNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtZNodePut
				{Op: ir.OpCollOp, Field: fDT("nodes"), CollMethod: "put"},
				logStmt("info", []string{"Created znode ", " on ", ""},
					ir.LogArg{Name: "path", Type: tZNode},
					ir.LogArg{Name: "server", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "getNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtZNodeGet
				{Op: ir.OpCollOp, Field: fDT("nodes"), CollMethod: "get", Use: ir.UseNormal},
				logStmt("warn", []string{"Read of missing znode ", ""},
					ir.LogArg{Name: "path", Type: tZNode}),
				{Op: ir.OpReturn},
			}},
			{Name: "deleteNode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtZNodeDelete
				{Op: ir.OpCollOp, Field: fDT("nodes"), CollMethod: "remove"},
				{Op: ir.OpReturn},
			}},
		},
	})

	fL := func(n string) ir.FieldID { return ir.FieldID(string(tLeader) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tLeader,
		Fields: []*ir.Field{
			{Name: "outstanding", Type: tHashMap, KeyType: tZNode, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "replicate", Public: true, Instrs: []*ir.Instr{
				// #0 = PtFollowerPut
				{Op: ir.OpCollOp, Field: fL("outstanding"), CollMethod: "put"},
				logStmt("info", []string{"Replicated ", " to quorum of ", ""},
					ir.LogArg{Name: "path", Type: tZNode},
					ir.LogArg{Name: "quorum", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name: tPeer,
		Methods: []*ir.Method{
			{Name: "elect", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"Leader elected as ", ""},
					ir.LogArg{Name: "server", Type: tString}),
				logStmt("warn", []string{"Leader ", " lost; ", " taking over"},
					ir.LogArg{Name: "old", Type: tString},
					ir.LogArg{Name: "server", Type: tString}),
				{Op: ir.OpReturn},
			}},
			{Name: "smokeDone", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"Smoketest finished ", " znodes"},
					ir.LogArg{Name: "n", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name:       "zookeeper.server.persistence.FileTxnLog",
		Interfaces: []ir.TypeID{"java.io.Closeable"},
		Methods: []*ir.Method{
			{Name: "writeTxn", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "flushCommit", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "close", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "append", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: "zookeeper.server.persistence.FileTxnLog.writeTxn"},
				{Op: ir.OpInvoke, Callee: "zookeeper.server.persistence.FileTxnLog.flushCommit"},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses sizes the synthesized corpus; ZooKeeper is by far
// the smallest system in the paper's census (Table 10).
const BackgroundClasses = 80

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0x200C)
	return p.Build()
})
