package all

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"testing"

	"repro/internal/ir"
)

// irDigest is an FNV-1a digest over everything the analysis reads from a
// program, in registration order: classes (name, supertype, interfaces,
// collection flag), fields (ID, types, ctor-only flag), methods (ID,
// flags) and every instruction (ID, opcode, field, collection method,
// callee, use, ctor flag, log pattern). A change to the IR builder or the
// background generator that reorders RNG draws or renames a point shows
// up here before it shifts a census or crash-point table.
func irDigest(p *ir.Program) string {
	h := fnv.New64a()
	put := func(parts ...string) {
		for _, s := range parts {
			io.WriteString(h, s)
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	flag := strconv.FormatBool
	for _, c := range p.Classes() {
		put("class", string(c.Name), string(c.Super), fmt.Sprint(c.Interfaces), flag(c.Collection))
		for _, f := range c.Fields {
			put("field", string(f.ID()), string(f.Type), string(f.KeyType), string(f.ElemType), flag(f.SetOnlyInCtor))
		}
		for _, m := range c.Methods {
			put("method", string(m.ID()), flag(m.Ctor), flag(m.Public))
			for _, ins := range m.Instrs {
				logPat := ""
				if ins.Log != nil {
					logPat = ins.Log.Level + ":" + ins.Log.Pattern()
				}
				put("instr", string(ins.ID), ins.Op.String(), string(ins.Field), ins.CollMethod,
					string(ins.Callee), ins.Use.String(), flag(ins.InCtor), logPat)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// irDigests pins each system's IR. The values were recorded with the
// original fmt-based builder; regenerate them only for a deliberate model
// change, never to absorb a side effect of an IR-builder change.
var irDigests = map[string]string{
	"yarn":      "a1189d64ea8ec05f",
	"hdfs":      "0a43b14bd407c2e0",
	"hbase":     "f29e1c9b74923870",
	"zookeeper": "71c61179fcac1be7",
	"cassandra": "6b049f8deb8b1896",
	"kubelike":  "c6420fd2109e7bd2",
	"toysys":    "d61aa121bbdec3f7",
}

func TestIRDigests(t *testing.T) {
	for _, r := range append(Runners(), Extensions()...) {
		got := irDigest(r.Program())
		if want := irDigests[r.Name()]; got != want {
			t.Errorf("%s IR digest = %s, want %s", r.Name(), got, want)
		}
	}
}
