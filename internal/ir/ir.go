// Package ir defines the intermediate representation of the systems under
// test. It plays the role Java bytecode + WALA play in the paper: the
// type-based static analysis (§3.1.2), the crash-point optimizations and
// the IO-point census (§4.2.2) all operate on this IR.
//
// Each simulated system (internal/systems/...) ships a Program describing
// its own code: classes with fields (including collection fields), methods
// with instruction lists (field accesses, collection operations, calls,
// logging statements, returns), and enough dataflow annotation on reads
// (how the read value is used) to drive the paper's three optimizations.
// The executable behaviour of the system and its IR model are kept in sync
// by construction: every meta-info access site in the Go code carries the
// PointID of the corresponding IR instruction via the probe layer.
package ir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TypeID is a fully-qualified type name, e.g.
// "yarn.api.records.NodeId" or "java.lang.String".
type TypeID string

// FieldID names a field as "Class.field".
type FieldID string

// MethodID names a method as "Class.method".
type MethodID string

// PointID names an instruction as "Class.method#index".
type PointID string

// Base types the analysis refuses to generalize from (§3.1.2): marking
// every String in the program as meta-info would flood the analysis with
// irrelevant variables. Fields of these types are identified as meta-info
// individually via log analysis, and their containing classes become
// meta-info types instead.
var BaseTypes = map[TypeID]bool{
	"java.lang.Integer": true,
	"java.lang.Long":    true,
	"java.lang.String":  true,
	"java.lang.Enum":    true,
	"byte[]":            true,
	"java.io.File":      true,
}

// IsBaseType reports whether t is one of the guarded base types.
func IsBaseType(t TypeID) bool { return BaseTypes[t] }

// Class describes one type in the system under test.
type Class struct {
	Name       TypeID
	Super      TypeID   // "" if none modeled
	Interfaces []TypeID // implemented interfaces, e.g. "java.io.Closeable"
	Fields     []*Field
	Methods    []*Method
	// Collection marks container classes (HashMap, ArrayList, ...).
	// Fields of collection classes carry element/key types on the Field.
	Collection bool
}

// ImplementsCloseable reports whether the class models an IO class
// (implements java.io.Closeable), the IO-class criterion of §4.2.2.
func (c *Class) ImplementsCloseable() bool {
	for _, i := range c.Interfaces {
		if i == "java.io.Closeable" {
			return true
		}
	}
	return false
}

// Field describes an instance field.
type Field struct {
	Name string
	// Owner is filled in by Program.Build.
	Owner TypeID
	// Type is the declared type; for collection fields this is the
	// container class (e.g. "java.util.HashMap").
	Type TypeID
	// KeyType/ElemType describe collection contents: for maps both are
	// set, for lists/sets only ElemType. Zero for scalar fields.
	KeyType  TypeID
	ElemType TypeID
	// SetOnlyInCtor marks fields assigned exclusively in constructors of
	// the owning class; such fields trigger the "Constructor" pruning
	// optimization and the containing-class rule of Definition 2.
	SetOnlyInCtor bool
}

// ID returns the field's global identifier.
func (f *Field) ID() FieldID { return FieldID(string(f.Owner) + "." + f.Name) }

// IsCollection reports whether the field holds a container.
func (f *Field) IsCollection() bool { return f.ElemType != "" || f.KeyType != "" }

// UseKind classifies how the value of a read instruction is used,
// providing the dataflow facts the paper computes with WALA.
type UseKind int

// Use kinds for read instructions.
const (
	UseNormal        UseKind = iota // value flows into real computation
	UseUnused                       // value never used
	UseLogOnly                      // only used in logging statements
	UseStringOnly                   // only used in toString/hashCode/equals
	UseSanityChecked                // checked in an if-condition before use
	UseReturnedOnly                 // only flows into return statements
)

var useNames = [...]string{"normal", "unused", "log-only", "string-only", "sanity-checked", "returned-only"}

func (u UseKind) String() string {
	if int(u) < len(useNames) {
		return useNames[u]
	}
	return fmt.Sprintf("UseKind(%d)", int(u))
}

// Opcode is the instruction kind.
type Opcode int

// Instruction opcodes.
const (
	OpGetField Opcode = iota // read a scalar field
	OpPutField               // write a scalar field
	OpCollOp                 // invoke a method on a collection field
	OpInvoke                 // call another modeled method
	OpLog                    // logging statement
	OpReturn                 // return from the method
	OpOther                  // any other instruction (census filler)
)

var opNames = [...]string{"getfield", "putfield", "collop", "invoke", "log", "return", "other"}

func (o Opcode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Instr is one instruction in a method body.
type Instr struct {
	// ID is filled in by Program.Build as "Class.method#index".
	ID   PointID
	Op   Opcode
	Line int

	// Field is set for OpGetField/OpPutField/OpCollOp.
	Field FieldID
	// CollMethod is the invoked container method name for OpCollOp
	// ("get", "put", "add", ...), classified via the Table 3 keywords.
	CollMethod string
	// Use annotates reads (OpGetField and read-classified OpCollOp).
	Use UseKind
	// InCtor marks instructions inside a constructor of the owning class;
	// writes in constructors do not disqualify SetOnlyInCtor.
	InCtor bool

	// Callee is set for OpInvoke.
	Callee MethodID

	// Log is set for OpLog.
	Log *LogStmt
}

// LogStmt is a static logging statement: interleaved constant segments and
// logged variables. len(Segments) == len(Args)+1; rendering a statement is
// Segments[0] + value(Args[0]) + Segments[1] + ...
type LogStmt struct {
	Level    string // "fatal".."trace", matched by interface name (§3.1.1)
	Segments []string
	Args     []LogArg
}

// LogArg is one logged variable.
type LogArg struct {
	Name string
	Type TypeID
	// Field optionally links the logged variable to the instance field it
	// was read from; base-typed meta-info fields are identified through
	// this link (§3.1.2).
	Field FieldID
}

// Pattern renders the log pattern with (.*) in place of each variable,
// as in Fig. 5(b).
func (s *LogStmt) Pattern() string {
	var b strings.Builder
	for i, seg := range s.Segments {
		b.WriteString(seg)
		if i < len(s.Args) {
			b.WriteString("(.*)")
		}
	}
	return b.String()
}

// Method is one method of a class.
type Method struct {
	Name string
	// Owner is filled in by Program.Build.
	Owner TypeID
	// Ctor marks constructors.
	Ctor bool
	// Public marks externally callable methods.
	Public bool
	// IO marks methods counted as IO methods by the §4.2.2 census; it is
	// derived (Closeable owner + read/write/flush/close prefix).
	Instrs []*Instr
}

// ID returns the method's global identifier.
func (m *Method) ID() MethodID { return MethodID(string(m.Owner) + "." + m.Name) }

// IOPrefixes are the method-name prefixes that make a public method of an
// IO class an IO method (§4.2.2).
var IOPrefixes = []string{"read", "write", "flush", "close"}

// IsIOMethod reports whether the method is an IO method of an IO class.
func (m *Method) IsIOMethod(p *Program) bool {
	c := p.Class(m.Owner)
	if c == nil || !c.ImplementsCloseable() || !m.Public {
		return false
	}
	for _, pre := range IOPrefixes {
		if strings.HasPrefix(m.Name, pre) {
			return true
		}
	}
	return false
}

// Program is the IR of one system under test.
//
// A program is mutable only until Build: AddClass on a built program
// panics. Each system builds its program once per process and shares it
// (cluster.Runner.Program), so a built program is immutable by contract —
// every query is read-only and safe for concurrent use, and no caller may
// modify the classes, fields, methods or instructions it returns.
type Program struct {
	System  string
	classes map[TypeID]*Class
	order   []TypeID
	methods map[MethodID]*Method
	fields  map[FieldID]*Field
	// callers maps a method to the invoke instructions that call it.
	callers map[MethodID][]*Instr
	built   bool
}

// NewProgram returns an empty program for the named system.
func NewProgram(system string) *Program {
	return &Program{System: system, classes: make(map[TypeID]*Class)}
}

// AddClass registers a class. It panics on duplicates (model bugs should
// fail loudly at construction time) and on a built program, which may be
// shared and must not change.
func (p *Program) AddClass(c *Class) *Class {
	if p.built {
		panic(fmt.Sprintf("ir: AddClass(%s) on built program %s", c.Name, p.System))
	}
	if _, dup := p.classes[c.Name]; dup {
		panic(fmt.Sprintf("ir: duplicate class %s", c.Name))
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c.Name)
	return c
}

// Build assigns owners and point IDs and indexes methods, fields and call
// sites. It must be called after all classes are added and before any
// query; it is idempotent.
func (p *Program) Build() *Program {
	if p.built {
		return p
	}
	nFields, nMethods := 0, 0
	for _, name := range p.order {
		c := p.classes[name]
		nFields += len(c.Fields)
		nMethods += len(c.Methods)
	}
	p.methods = make(map[MethodID]*Method, nMethods)
	p.fields = make(map[FieldID]*Field, nFields)
	p.callers = make(map[MethodID][]*Instr)
	var ids []byte
	var ends []int
	for _, name := range p.order {
		c := p.classes[name]
		for _, f := range c.Fields {
			f.Owner = c.Name
			id := f.ID()
			if _, dup := p.fields[id]; dup {
				panic(fmt.Sprintf("ir: duplicate field %s", id))
			}
			p.fields[id] = f
		}
		for _, m := range c.Methods {
			m.Owner = c.Name
			mid := m.ID()
			if _, dup := p.methods[mid]; dup {
				panic(fmt.Sprintf("ir: duplicate method %s", mid))
			}
			p.methods[mid] = m
			// The method's point IDs are cut from one string
			// "C.m#0C.m#1...": one allocation per method, not per
			// instruction.
			ids, ends = ids[:0], ends[:0]
			for i := range m.Instrs {
				ids = append(ids, mid...)
				ids = append(ids, '#')
				ids = strconv.AppendInt(ids, int64(i), 10)
				ends = append(ends, len(ids))
			}
			all, start := string(ids), 0
			for i, ins := range m.Instrs {
				ins.ID = PointID(all[start:ends[i]])
				start = ends[i]
				if m.Ctor {
					ins.InCtor = true
				}
				if ins.Op == OpInvoke {
					p.callers[ins.Callee] = append(p.callers[ins.Callee], ins)
				}
			}
		}
	}
	p.built = true
	return p
}

// Class returns the class named t, or nil.
func (p *Program) Class(t TypeID) *Class { return p.classes[t] }

// Classes returns all classes in registration order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.order))
	for _, n := range p.order {
		out = append(out, p.classes[n])
	}
	return out
}

// Method returns the method with the given ID, or nil.
func (p *Program) Method(id MethodID) *Method { return p.methods[id] }

// Field returns the field with the given ID, or nil.
func (p *Program) Field(id FieldID) *Field { return p.fields[id] }

// Callers returns the invoke instructions calling method id.
func (p *Program) Callers(id MethodID) []*Instr { return p.callers[id] }

// Instr returns the instruction with the given point ID, or nil.
func (p *Program) Instr(id PointID) *Instr {
	mid, idx, ok := SplitPoint(id)
	if !ok {
		return nil
	}
	m := p.methods[mid]
	if m == nil || idx >= len(m.Instrs) || m.Instrs[idx].ID != id {
		return nil
	}
	return m.Instrs[idx]
}

// SplitPoint decomposes "Class.method#3" into its method and index. It
// accepts only the form Build assigns: a non-empty method ID, '#', and a
// canonical non-negative decimal index (no sign, spaces, trailing bytes
// or leading zeros).
func SplitPoint(id PointID) (MethodID, int, bool) {
	s := string(id)
	i := strings.LastIndexByte(s, '#')
	if i <= 0 {
		return "", 0, false
	}
	num := s[i+1:]
	idx, err := strconv.Atoi(num)
	if err != nil || idx < 0 || strconv.Itoa(idx) != num {
		return "", 0, false
	}
	return MethodID(s[:i]), idx, true
}

// Subtypes returns t and every modeled transitive subtype of t (classes
// whose Super chain or interface list reaches t).
func (p *Program) Subtypes(t TypeID) []TypeID {
	out := []TypeID{t}
	seen := map[TypeID]bool{t: true}
	changed := true
	for changed {
		changed = false
		for _, name := range p.order {
			c := p.classes[name]
			if seen[c.Name] {
				continue
			}
			if seen[c.Super] {
				seen[c.Name] = true
				out = append(out, c.Name)
				changed = true
				continue
			}
			for _, i := range c.Interfaces {
				if seen[i] {
					seen[c.Name] = true
					out = append(out, c.Name)
					changed = true
					break
				}
			}
		}
	}
	return out
}

// LogStmts returns every logging statement in the program, with its
// containing instruction, in deterministic order.
func (p *Program) LogStmts() []*Instr {
	var out []*Instr
	for _, name := range p.order {
		for _, m := range p.classes[name].Methods {
			for _, ins := range m.Instrs {
				if ins.Op == OpLog {
					out = append(out, ins)
				}
			}
		}
	}
	return out
}

// Census counts for Table 10 (left half): total types, fields and field
// access points (getfield/putfield/collop instructions).
type Census struct {
	Types        int
	Fields       int
	AccessPoints int
}

// Census returns the program-wide totals.
func (p *Program) Census() Census {
	var c Census
	c.Types = len(p.classes)
	for _, name := range p.order {
		cl := p.classes[name]
		c.Fields += len(cl.Fields)
		for _, m := range cl.Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case OpGetField, OpPutField, OpCollOp:
					c.AccessPoints++
				}
			}
		}
	}
	return c
}

// Validate checks referential integrity: field references resolve,
// callees exist, log statements are well-formed. It returns all problems
// found (nil means the model is consistent).
func (p *Program) Validate() []error {
	p.Build()
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, name := range p.order {
		for _, m := range p.classes[name].Methods {
			for _, ins := range m.Instrs {
				switch ins.Op {
				case OpGetField, OpPutField, OpCollOp:
					f := p.fields[ins.Field]
					if f == nil {
						bad("%s: unresolved field %s", ins.ID, ins.Field)
						continue
					}
					if ins.Op == OpCollOp {
						if !f.IsCollection() {
							bad("%s: collop on scalar field %s", ins.ID, ins.Field)
						}
						if ins.CollMethod == "" {
							bad("%s: collop without method name", ins.ID)
						}
					}
					if ins.Op != OpCollOp && f.IsCollection() {
						// Scalar access to a collection-typed field is
						// fine (reading the container reference itself).
						_ = f
					}
				case OpInvoke:
					if p.methods[ins.Callee] == nil {
						bad("%s: unresolved callee %s", ins.ID, ins.Callee)
					}
				case OpLog:
					if ins.Log == nil {
						bad("%s: log instruction without statement", ins.ID)
					} else if len(ins.Log.Segments) != len(ins.Log.Args)+1 {
						bad("%s: log statement segments/args mismatch", ins.ID)
					}
				}
			}
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}
