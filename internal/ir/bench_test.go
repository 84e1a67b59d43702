package ir

import "testing"

// BenchmarkProgramBuild measures one cold IR build at yarn's size: a
// fresh program with the 400-class background corpus, synthesized and
// indexed. Each system pays this once per process.
func BenchmarkProgramBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewProgram("yarn")
		SynthesizeBackground(p, 400, 0xCAFE)
	}
}
