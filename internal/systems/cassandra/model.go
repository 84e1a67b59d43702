package cassandra

import (
	"sync"

	"repro/internal/ir"
)

const (
	tEndpoint = ir.TypeID("cassandra.locator.InetAddressAndPort")
	tToken    = ir.TypeID("cassandra.dht.Token")
	tMutation = ir.TypeID("cassandra.db.Mutation")
	tSS       = ir.TypeID("cassandra.service.StorageService")
	tSP       = ir.TypeID("cassandra.service.StorageProxy")
	tCFS      = ir.TypeID("cassandra.db.ColumnFamilyStore")
	tHashMap  = ir.TypeID("java.util.HashMap")
	tString   = ir.TypeID("java.lang.String")
)

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

func buildModel() *ir.Program {
	p := ir.NewProgram("cassandra")
	p.AddClass(&ir.Class{Name: tEndpoint})
	p.AddClass(&ir.Class{Name: tToken})
	p.AddClass(&ir.Class{Name: tMutation})

	fSS := func(n string) ir.FieldID { return ir.FieldID(string(tSS) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tSS,
		Fields: []*ir.Field{
			{Name: "ring", Type: tHashMap, KeyType: tToken, ElemType: tEndpoint},
			{Name: "endpointState", Type: tHashMap, KeyType: tEndpoint, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "addEndpoint", Public: true, Instrs: []*ir.Instr{
				// #0 = PtEndpointPut
				{Op: ir.OpCollOp, Field: fSS("ring"), CollMethod: "put"},
				logStmt("info", []string{"Node ", " joined the ring with token ", ""},
					ir.LogArg{Name: "endpoint", Type: tEndpoint},
					ir.LogArg{Name: "token", Type: tToken}),
				{Op: ir.OpReturn},
			}},
			{Name: "removeEndpoint", Public: true, Instrs: []*ir.Instr{
				// #0 = PtEndpointRemove
				{Op: ir.OpCollOp, Field: fSS("endpointState"), CollMethod: "remove"},
				logStmt("warn", []string{"Node ", " removed from ring (", ")"},
					ir.LogArg{Name: "endpoint", Type: tEndpoint},
					ir.LogArg{Name: "why", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fSP := func(n string) ir.FieldID { return ir.FieldID(string(tSP) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tSP,
		Fields: []*ir.Field{
			{Name: "hints", Type: tHashMap, KeyType: tMutation, ElemType: tEndpoint},
		},
		Methods: []*ir.Method{
			{Name: "route", Public: true, Instrs: []*ir.Instr{
				// #0 = PtRouteGet (CA-15131: unchecked endpoint state)
				{Op: ir.OpCollOp, Field: fSS("endpointState"), CollMethod: "get", Use: ir.UseNormal},
				// The ring lookup itself is retried when empty.
				{Op: ir.OpCollOp, Field: fSS("ring"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("warn", []string{"Retrying ", " after endpoint change"},
					ir.LogArg{Name: "mutation", Type: tMutation}),
				{Op: ir.OpReturn},
			}},
			{Name: "storeHint", Public: true, Instrs: []*ir.Instr{
				// #0 = PtHintPut
				{Op: ir.OpCollOp, Field: fSP("hints"), CollMethod: "put"},
				logStmt("warn", []string{"Stored hint for ", " owned by ", ""},
					ir.LogArg{Name: "mutation", Type: tMutation},
					ir.LogArg{Name: "endpoint", Type: tEndpoint}),
				{Op: ir.OpReturn},
			}},
			{Name: "stressDone", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"Stress wrote ", " keys"},
					ir.LogArg{Name: "n", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fCFS := func(n string) ir.FieldID { return ir.FieldID(string(tCFS) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tCFS,
		Fields: []*ir.Field{
			{Name: "memtable", Type: tHashMap, KeyType: tMutation, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "applyMutation", Public: true, Instrs: []*ir.Instr{
				// #0 = PtApplyPut
				{Op: ir.OpCollOp, Field: fCFS("memtable"), CollMethod: "put"},
				logStmt("info", []string{"Applied mutation ", " at ", ""},
					ir.LogArg{Name: "mutation", Type: tMutation},
					ir.LogArg{Name: "endpoint", Type: tEndpoint}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name:       "cassandra.io.sstable.SSTableWriter",
		Interfaces: []ir.TypeID{"java.io.Closeable"},
		Methods: []*ir.Method{
			{Name: "writePartition", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "flushIndex", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "close", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "finish", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: "cassandra.io.sstable.SSTableWriter.writePartition"},
				{Op: ir.OpInvoke, Callee: "cassandra.io.sstable.SSTableWriter.flushIndex"},
				{Op: ir.OpInvoke, Callee: "cassandra.io.sstable.SSTableWriter.close"},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses sizes the synthesized corpus (Table 10: Cassandra has
// a large codebase but only one logged meta-info type).
const BackgroundClasses = 280

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0xCA55)
	return p.Build()
})
