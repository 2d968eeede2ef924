package sem_test

import (
	"runtime"
	"testing"

	"nascent/internal/parser"
	"nascent/internal/sem"
	"nascent/internal/suite"
)

// frontendAllocPerByte caps the bytes parse+analyze may allocate per
// source byte of any suite program. While the lexer collected every
// token into a slice before parsing, the suite allocated 31-74 bytes
// per source byte (bdna the most); pulling tokens one at a time brought
// that to 10-17 (go1.24, linux/amd64). The cap leaves headroom over
// the new worst case and fails every program at the old rate.
const frontendAllocPerByte = 24

// TestFrontendAllocPerSourceByte is a deterministic allocation gate on
// the frontend: runtime.MemStats.TotalAlloc growth across Parse and
// Analyze, on a single goroutine, per byte of source.
func TestFrontendAllocPerSourceByte(t *testing.T) {
	var before, after runtime.MemStats
	for _, p := range suite.Programs {
		runtime.ReadMemStats(&before)
		f, err := parser.Parse(p.Name+".mf", p.Source)
		if err == nil {
			_, err = sem.Analyze(f)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(p.Source))
		t.Logf("%-10s %5d source bytes, %6.1f allocated bytes per source byte", p.Name, len(p.Source), perByte)
		if perByte > frontendAllocPerByte {
			t.Errorf("%s: parse+analyze allocated %.1f bytes per source byte, budget %d", p.Name, perByte, frontendAllocPerByte)
		}
	}
}
