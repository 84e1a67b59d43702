package ir

import (
	"math/rand"
	"strconv"
)

// SynthesizeBackground adds nClasses of plain, non-meta-info "business
// logic" classes to the program, each with fields, methods, field
// accesses, internal calls and some IO classes/call-sites.
//
// The hand-written system models capture every class that matters to
// crash-recovery behaviour, but a real codebase dwarfs that core: in the
// paper's census (Table 10) meta-info types are ~1% of all types and
// crash points ~0.5% of access points. The background corpus restores
// that proportion so census-style experiments exercise the analysis at a
// realistic signal-to-noise ratio. Background classes never reference
// meta-info types, so they must all be pruned by the analysis; tests
// assert exactly that.
//
// The generator is deterministic for a given seed.
func SynthesizeBackground(p *Program, nClasses int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	scalarTypes := []TypeID{
		"java.lang.String", "java.lang.Integer", "java.lang.Long",
		"java.lang.Boolean", "java.lang.Double",
	}
	// Names are built without fmt: this loop runs once per system per
	// process and is most of the cost of a cold IR build. The RNG draw
	// order below is part of every system's model and must not change.
	prefix := p.System + ".internal.util.Background"
	var num []byte
	for i := 0; i < nClasses; i++ {
		num = strconv.AppendInt(num[:0], int64(i), 10)
		name := TypeID(prefix + "000"[:max(0, 4-len(num))] + string(num))
		isIO := rng.Intn(12) == 0
		c := &Class{Name: name}
		if isIO {
			c.Interfaces = []TypeID{"java.io.Closeable"}
		}
		nFields := 2 + rng.Intn(8)
		fields := make([]Field, nFields)
		fieldIDs := make([]FieldID, nFields)
		c.Fields = make([]*Field, nFields)
		for f := range fields {
			fld := &fields[f]
			fld.Name = "f" + strconv.Itoa(f)
			fld.Type = scalarTypes[rng.Intn(len(scalarTypes))]
			if rng.Intn(6) == 0 {
				fld.Type = "java.util.ArrayList"
				fld.ElemType = scalarTypes[rng.Intn(len(scalarTypes))]
			}
			if rng.Intn(5) == 0 {
				fld.SetOnlyInCtor = true
			}
			fieldIDs[f] = FieldID(string(name) + "." + fld.Name)
			c.Fields[f] = fld
		}
		nMethods := 1 + rng.Intn(4)
		for mi := 0; mi < nMethods; mi++ {
			m := &Method{Name: "work" + strconv.Itoa(mi), Public: true}
			nInstr := 2 + rng.Intn(10)
			instrs := make([]Instr, nInstr+1)
			m.Instrs = make([]*Instr, nInstr+1)
			for k := 0; k < nInstr; k++ {
				f := rng.Intn(len(c.Fields))
				ins := &instrs[k]
				ins.Field = fieldIDs[f]
				switch {
				case c.Fields[f].IsCollection():
					ins.Op, ins.CollMethod = OpCollOp, "get"
					if rng.Intn(2) == 0 {
						ins.CollMethod = "add"
					}
				case rng.Intn(2) == 0:
					ins.Op = OpGetField
				default:
					ins.Op = OpPutField
				}
				m.Instrs[k] = ins
			}
			instrs[nInstr].Op = OpReturn
			m.Instrs[nInstr] = &instrs[nInstr]
			c.Methods = append(c.Methods, m)
		}
		if isIO {
			for _, ioName := range []string{"readBuffer", "writeBuffer", "flushAll", "close"} {
				c.Methods = append(c.Methods, &Method{
					Name:   ioName,
					Public: true,
					Instrs: []*Instr{{Op: OpOther}, {Op: OpReturn}},
				})
			}
			// A caller exercising the IO methods, so the static IO point
			// census (Table 8) sees call-sites.
			caller := &Method{Name: "transfer", Public: true}
			for _, ioName := range []string{"readBuffer", "writeBuffer", "flushAll", "close"} {
				caller.Instrs = append(caller.Instrs, &Instr{
					Op:     OpInvoke,
					Callee: MethodID(string(name) + "." + ioName),
				})
			}
			caller.Instrs = append(caller.Instrs, &Instr{Op: OpReturn})
			c.Methods = append(c.Methods, caller)
		}
		p.AddClass(c)
	}
	p.Build()
}
