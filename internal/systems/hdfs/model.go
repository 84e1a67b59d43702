package hdfs

import (
	"sync"

	"repro/internal/ir"
)

const (
	tDNID    = ir.TypeID("hdfs.protocol.DatanodeID")
	tDNInfo  = ir.TypeID("hdfs.protocol.DatanodeInfo")
	tBlock   = ir.TypeID("hdfs.protocol.Block")
	tBlkInfo = ir.TypeID("hdfs.server.blockmanagement.BlockInfo")
	tBPOffer = ir.TypeID("hdfs.server.datanode.BPOfferService")
	tNN      = ir.TypeID("hdfs.server.namenode.NameNode")
	tDN      = ir.TypeID("hdfs.server.datanode.DataNode")
	tHashMap = ir.TypeID("java.util.HashMap")
	tArrList = ir.TypeID("java.util.ArrayList")
	tString  = ir.TypeID("java.lang.String")
	tFile    = ir.TypeID("java.io.File")
)

// PtBlkAlloc is the block-allocation post-write point; its value is not
// yet associated with any node when hit, exercising the trigger's
// unresolved path.
const PtBlkAlloc = ir.PointID("hdfs.server.namenode.NameNode.allocateBlock#0")

func logStmt(level string, segs []string, args ...ir.LogArg) *ir.Instr {
	return &ir.Instr{Op: ir.OpLog, Log: &ir.LogStmt{Level: level, Segments: segs, Args: args}}
}

func buildModel() *ir.Program {
	p := ir.NewProgram("hdfs")
	p.AddClass(&ir.Class{Name: tDNID})
	p.AddClass(&ir.Class{Name: tDNInfo, Super: tDNID})
	p.AddClass(&ir.Class{Name: tBlock})
	p.AddClass(&ir.Class{
		Name: tBlkInfo,
		Fields: []*ir.Field{
			{Name: "block", Type: tBlock, SetOnlyInCtor: true},
			{Name: "locations", Type: tArrList, ElemType: tDNID},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tBlkInfo) + ".block")},
				{Op: ir.OpReturn},
			}},
			// Read of a ctor-set field: pruned by Constructor.
			{Name: "getBlock", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpGetField, Field: ir.FieldID(string(tBlkInfo) + ".block"), Use: ir.UseReturnedOnly},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{
		Name: tBPOffer,
		Fields: []*ir.Field{
			{Name: "datanodeId", Type: tDNID, SetOnlyInCtor: true},
		},
		Methods: []*ir.Method{
			{Name: "<init>", Ctor: true, Instrs: []*ir.Instr{
				{Op: ir.OpPutField, Field: ir.FieldID(string(tBPOffer) + ".datanodeId")},
				{Op: ir.OpReturn},
			}},
		},
	})

	fNN := func(n string) ir.FieldID { return ir.FieldID(string(tNN) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tNN,
		Fields: []*ir.Field{
			{Name: "datanodeMap", Type: tHashMap, KeyType: tDNID, ElemType: tDNInfo},
			{Name: "blocksMap", Type: tHashMap, KeyType: tBlock, ElemType: tBlkInfo},
			{Name: "files", Type: tHashMap, KeyType: tString, ElemType: tBlock},
		},
		Methods: []*ir.Method{
			{Name: "registerDatanode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtDNPut
				{Op: ir.OpCollOp, Field: fNN("datanodeMap"), CollMethod: "put"},
				logStmt("info", []string{"Registered datanode ", ""},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				// Meta-info read used only for a log line: pruned Unused.
				{Op: ir.OpCollOp, Field: fNN("datanodeMap"), CollMethod: "values", Use: ir.UseLogOnly},
				{Op: ir.OpReturn},
			}},
			{Name: "getBlockLocations", Public: true, Instrs: []*ir.Instr{
				// #0: file lookup, sanity-checked.
				{Op: ir.OpCollOp, Field: fNN("files"), CollMethod: "get", Use: ir.UseSanityChecked},
				// #1 = PtDNGet (HDFS-14216)
				{Op: ir.OpCollOp, Field: fNN("datanodeMap"), CollMethod: "get", Use: ir.UseNormal},
				logStmt("warn", []string{"Location ", " gone, retrying ", ""},
					ir.LogArg{Name: "datanodeId", Type: tDNID},
					ir.LogArg{Name: "path", Type: tFile, Field: fNN("files")}),
				{Op: ir.OpReturn},
			}},
			{Name: "blockReceived", Public: true, Instrs: []*ir.Instr{
				// #0 = PtBlockRecv
				{Op: ir.OpCollOp, Field: ir.FieldID(string(tBlkInfo) + ".locations"), CollMethod: "add"},
				logStmt("info", []string{"Received block ", " from ", ""},
					ir.LogArg{Name: "block", Type: tBlock},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				{Op: ir.OpReturn},
			}},
			{Name: "removeDatanode", Public: true, Instrs: []*ir.Instr{
				// #0 = PtDNRemove
				{Op: ir.OpCollOp, Field: fNN("datanodeMap"), CollMethod: "remove"},
				logStmt("warn", []string{"Datanode ", " ", ", re-replicating its blocks"},
					ir.LogArg{Name: "datanodeId", Type: tDNID},
					ir.LogArg{Name: "why", Type: tString}),
				{Op: ir.OpInvoke, Callee: ir.MethodID(string(tNN) + ".scheduleReplication")},
				{Op: ir.OpReturn},
			}},
			{Name: "scheduleReplication", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fNN("blocksMap"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Starting re-replication of ", " to ", ""},
					ir.LogArg{Name: "block", Type: tBlock},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				logStmt("error", []string{"Block ", " has no replicas left"},
					ir.LogArg{Name: "block", Type: tBlock}),
				{Op: ir.OpReturn},
			}},
			{Name: "chooseTargets", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fNN("datanodeMap"), CollMethod: "values", Use: ir.UseSanityChecked},
				{Op: ir.OpReturn},
			}},
			{Name: "allocateBlock", Public: true, Instrs: []*ir.Instr{
				// #0 = PtBlkAlloc
				{Op: ir.OpCollOp, Field: fNN("blocksMap"), CollMethod: "put"},
				logStmt("info", []string{"Allocated ", " for file ", " targets ", ""},
					ir.LogArg{Name: "block", Type: tBlock},
					ir.LogArg{Name: "path", Type: tFile, Field: fNN("files")},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				logStmt("warn", []string{"Write of ", " timed out, re-allocating"},
					ir.LogArg{Name: "path", Type: tFile, Field: fNN("files")}),
				{Op: ir.OpReturn},
			}},
			{Name: "webStatus", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpCollOp, Field: fNN("files"), CollMethod: "get", Use: ir.UseSanityChecked},
				logStmt("info", []string{"Web request for file /io/file_0 served block ", ""},
					ir.LogArg{Name: "block", Type: tBlock}),
				{Op: ir.OpReturn},
			}},
			{Name: "clientDone", Public: true, Instrs: []*ir.Instr{
				logStmt("info", []string{"All ", " files written and verified"},
					ir.LogArg{Name: "n", Type: tString}),
				{Op: ir.OpReturn},
			}},
		},
	})

	fDN := func(n string) ir.FieldID { return ir.FieldID(string(tDN) + "." + n) }
	p.AddClass(&ir.Class{
		Name: tDN,
		Fields: []*ir.Field{
			{Name: "bpOffer", Type: tBPOffer},
			{Name: "blocks", Type: tHashMap, KeyType: tBlock, ElemType: tString},
		},
		Methods: []*ir.Method{
			{Name: "register", Public: true, Instrs: []*ir.Instr{
				// #0 = PtBPReg (HDFS-14372)
				{Op: ir.OpGetField, Field: fDN("bpOffer"), Use: ir.UseNormal},
				logStmt("info", []string{"BPOfferService for ", " registered with NameNode"},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				{Op: ir.OpReturn},
			}},
			{Name: "storeBlock", Public: true, Instrs: []*ir.Instr{
				// #0 = PtDNStore
				{Op: ir.OpCollOp, Field: fDN("blocks"), CollMethod: "put"},
				logStmt("info", []string{"Block ", " stored on ", ""},
					ir.LogArg{Name: "block", Type: tBlock},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				{Op: ir.OpReturn},
			}},
			{Name: "shutdownBP", Public: true, Instrs: []*ir.Instr{
				logStmt("error", []string{"Datanode ", " aborted during shutdown"},
					ir.LogArg{Name: "datanodeId", Type: tDNID}),
				{Op: ir.OpReturn},
			}},
		},
	})

	p.AddClass(&ir.Class{
		Name:       "hdfs.server.namenode.EditLogOutputStream",
		Interfaces: []ir.TypeID{"java.io.Closeable"},
		Methods: []*ir.Method{
			{Name: "writeOp", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "flushSync", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "close", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "logSync", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpInvoke, Callee: "hdfs.server.namenode.EditLogOutputStream.writeOp"},
				{Op: ir.OpInvoke, Callee: "hdfs.server.namenode.EditLogOutputStream.flushSync"},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p
}

// BackgroundClasses sizes the synthesized non-meta corpus (Table 10).
const BackgroundClasses = 350

// Program implements cluster.Runner: the shared, immutable IR, built on
// first use and then reused by every Runner in the process.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := buildModel()
	ir.SynthesizeBackground(p, BackgroundClasses, 0xD1F5)
	return p.Build()
})
