package vm_test

import (
	"testing"

	"nascent"
	"nascent/internal/conformance"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// censusAllow lists the fused opcodes no census input emits, each with
// the reason it still exists. The census fails when one of them starts
// being emitted, so the list can only shrink.
var censusAllow = map[string]string{
	"affstorei1": "positional member of Aff1 (collapseChains); no input leaves a collapsed int 1-D store unfused",
	"cp2storei1": "positional member of CP2 (pickAccessOp); no input has an int store right behind two check pairs on its subscript",
	"cp2storef1": "positional member of CP2 (pickAccessOp); no input has a float store right behind two check pairs on its subscript",
	"cpqstorei2": "positional member of CPQ (fuseChecks); no input has an int 2-D store right behind two check pairs",
	"incbreqi":   "positional member of IncBr (opIncBrEqI + k); no loop header tests with eq",
	"incbrnei":   "positional member of IncBr (opIncBrEqI + k); no loop header tests with ne",
	"incbrgti":   "positional member of IncBr (opIncBrEqI + k); no loop header tests with gt",
	"affloadi2":  "positional member of Aff2 (fuse2D); no input leaves an int 2-D load with collapsed subscripts unfused",
	"affstorei2": "positional member of Aff2 (fuse2D); no input leaves an int 2-D store with collapsed subscripts unfused",
	"affstoref2": "intermediate form: in every input fuseBins folds it into binstoref2 or binbinstoref2",
}

// censusSources is the census input set: the Table 1 suite, the
// irregular stress programs and the conformance corpus.
func censusSources() map[string]string {
	srcs := make(map[string]string)
	for _, p := range suite.Programs {
		srcs[p.Name] = p.Source
	}
	for _, p := range suite.Irregular {
		srcs[p.Name] = p.Source
	}
	for _, c := range conformance.Corpus {
		srcs["corpus/"+c.Name] = c.Src
	}
	return srcs
}

// TestFusedOpcodeCensus is the ratchet on the fused instruction set.
// Every census input is compiled under naive and all eight optimizing
// schemes through the one optimizing pipeline (Compile → Optimize),
// and each fused opcode — affloadi1 through
// binbinstoref2 — must be emitted by at least one of them or be on
// censusAllow. A family the inputs never reach is two copies of dead
// code (its fuse.go pattern and its exec.go case).
func TestFusedOpcodeCensus(t *testing.T) {
	byName := make(map[string]uint8)
	for op := 0; op < vm.KnownOps(); op++ {
		byName[vm.OpName(uint8(op))] = uint8(op)
	}
	first, ok1 := byName["affloadi1"]
	last, ok2 := byName["binbinstoref2"]
	if !ok1 || !ok2 || first > last {
		t.Fatalf("fused opcode range not found (affloadi1=%d/%v binbinstoref2=%d/%v)", first, ok1, last, ok2)
	}
	for name := range censusAllow {
		if op, ok := byName[name]; !ok || op < first || op > last {
			t.Errorf("allowlist entry %q is not a fused opcode", name)
		}
	}

	emitted := make(map[uint8]bool)
	for name, src := range censusSources() {
		for s := nascent.Naive; s <= nascent.MCM; s++ {
			cp, err := nascent.Compile(src, nascent.Options{BoundsChecks: true, Scheme: s})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			vp, err := vm.CompileOptimized(cp.IR)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			for _, in := range vp.Image().Code {
				emitted[in.Op] = true
			}
		}
	}

	for op := first; op <= last; op++ {
		name := vm.OpName(op)
		reason, allowed := censusAllow[name]
		switch {
		case emitted[op] && allowed:
			t.Errorf("%s is emitted now: delete its allowlist entry (%s)", name, reason)
		case !emitted[op] && !allowed:
			t.Errorf("fused opcode %s is never emitted: delete its family, or allowlist it with a reason", name)
		}
	}
}
