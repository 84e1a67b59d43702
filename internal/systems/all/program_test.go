package all

import (
	"sync"
	"testing"

	"repro/internal/ir"
)

// Every system's Program is one process-wide immutable value: concurrent
// first calls agree on the pointer, and read-only queries on it are
// race-free (run under -race).
func TestProgramSharedAcrossGoroutines(t *testing.T) {
	const goroutines = 8
	systems := append(Runners(), Extensions()...)
	got := make([][]*ir.Program, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// A fresh Runner per goroutine: the memo is per system,
			// not per Runner value.
			for _, r := range append(Runners(), Extensions()...) {
				p := r.Program()
				p.Census()
				p.IOCensus()
				p.Validate()
				p.Subtypes(p.Classes()[0].Name)
				got[g] = append(got[g], p)
			}
		}(g)
	}
	wg.Wait()
	for i, r := range systems {
		want := r.Program()
		for g := 0; g < goroutines; g++ {
			if got[g][i] != want {
				t.Errorf("%s: goroutine %d saw program %p, want %p", r.Name(), g, got[g][i], want)
			}
		}
	}
}
