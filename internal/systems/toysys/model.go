package toysys

import (
	"sync"

	"repro/internal/ir"
)

// Program returns the IR model of the toy system. Instruction indexes
// must stay aligned with the Pt* constants in toysys.go: the probe calls
// in the Go implementation cite these IDs.
//
// The model is the template's memo pattern: a package-level
// sync.OnceValue builds it on first use, and every Runner in the process
// shares the one immutable program. The model must not depend on Runner
// fields (worker count, Fix* switches), and nothing may modify it after
// Build.
func (r *Runner) Program() *ir.Program { return program() }

var program = sync.OnceValue(func() *ir.Program {
	p := ir.NewProgram("toysys")
	p.AddClass(&ir.Class{Name: "toy.WorkerId"})
	p.AddClass(&ir.Class{Name: "toy.TaskId"})
	p.AddClass(&ir.Class{Name: "toy.AttemptId"})
	p.AddClass(&ir.Class{Name: "toy.WorkerInfo"})
	p.AddClass(&ir.Class{
		Name: "toy.Worker",
		Methods: []*ir.Method{
			{Name: "runTask", Public: true, Instrs: []*ir.Instr{{Op: ir.OpReturn}}},
			{Name: "boot", Public: true, Instrs: []*ir.Instr{
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
					Segments: []string{"Worker ", " connecting to master ", ""},
					Args: []ir.LogArg{
						{Name: "workerId", Type: "toy.WorkerId"},
						{Name: "masterId", Type: "toy.WorkerId"}}}},
				{Op: ir.OpReturn},
			}},
		},
	})
	p.AddClass(&ir.Class{
		Name: "toy.Master",
		Fields: []*ir.Field{
			{Name: "workers", Type: "java.util.HashMap",
				KeyType: "toy.WorkerId", ElemType: "toy.WorkerInfo"},
			{Name: "pending", Type: "java.util.HashMap",
				KeyType: "toy.TaskId", ElemType: "toy.AttemptId"},
		},
		Methods: []*ir.Method{
			{Name: "registerWorker", Public: true, Instrs: []*ir.Instr{
				// #0 = PtRegisterPut
				{Op: ir.OpCollOp, Field: "toy.Master.workers", CollMethod: "put"},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
					Segments: []string{"Worker registered as ", ""},
					Args:     []ir.LogArg{{Name: "workerId", Type: "toy.WorkerId"}}}},
				{Op: ir.OpReturn},
			}},
			{Name: "commitPending", Public: true, Instrs: []*ir.Instr{
				// #0 = PtCommitGet (TOY-1: the unchecked read)
				{Op: ir.OpCollOp, Field: "toy.Master.workers", CollMethod: "get", Use: ir.UseNormal},
				// #1 = PtCommitPut (TOY-2: the corrupting write)
				{Op: ir.OpCollOp, Field: "toy.Master.pending", CollMethod: "put"},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "warn",
					Segments: []string{"Rejecting commit of ", " for ", ""},
					Args: []ir.LogArg{
						{Name: "attemptId", Type: "toy.AttemptId"},
						{Name: "taskId", Type: "toy.TaskId"}}}},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "error",
					Segments: []string{"Ignoring commit from removed worker ", ""},
					Args:     []ir.LogArg{{Name: "workerId", Type: "toy.WorkerId"}}}},
				{Op: ir.OpReturn},
			}},
			{Name: "doneCommit", Public: true, Instrs: []*ir.Instr{
				// #0: the pending read is compared before use — sanity-checked.
				{Op: ir.OpCollOp, Field: "toy.Master.pending", CollMethod: "get", Use: ir.UseSanityChecked},
				// #1 = PtDoneRemove
				{Op: ir.OpCollOp, Field: "toy.Master.pending", CollMethod: "remove"},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
					Segments: []string{"Task ", " completed by attempt ", ""},
					Args: []ir.LogArg{
						{Name: "taskId", Type: "toy.TaskId"},
						{Name: "attemptId", Type: "toy.AttemptId"}}}},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "warn",
					Segments: []string{"Stale doneCommit of ", ""},
					Args:     []ir.LogArg{{Name: "attemptId", Type: "toy.AttemptId"}}}},
				{Op: ir.OpReturn},
			}},
			{Name: "handleLost", Public: true, Instrs: []*ir.Instr{
				// #0 = PtLostRemove
				{Op: ir.OpCollOp, Field: "toy.Master.workers", CollMethod: "remove"},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "warn",
					Segments: []string{"Worker ", " lost, reassigning"},
					Args:     []ir.LogArg{{Name: "workerId", Type: "toy.WorkerId"}}}},
				{Op: ir.OpReturn},
			}},
			{Name: "assignTask", Public: true, Instrs: []*ir.Instr{
				// #0: the worker lookup is alive-checked — sanity-checked.
				{Op: ir.OpCollOp, Field: "toy.Master.workers", CollMethod: "get", Use: ir.UseSanityChecked},
				{Op: ir.OpLog, Log: &ir.LogStmt{Level: "info",
					Segments: []string{"Assigned attempt ", " to worker ", ""},
					Args: []ir.LogArg{
						{Name: "attemptId", Type: "toy.AttemptId"},
						{Name: "workerId", Type: "toy.WorkerId"}}}},
				{Op: ir.OpReturn},
			}},
		},
	})
	return p.Build()
})
