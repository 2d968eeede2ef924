package oracle_test

import (
	"bytes"
	"testing"

	"nascent"
	"nascent/internal/oracle"
	"nascent/internal/progio"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// TestCodecEngineIdentity extends the oracle's engine-identity
// invariant across the serialization boundary: for every oracle
// variant, a program decoded from its progio stream must be
// indistinguishable — output, counters, traps, errors — from the
// freshly compiled one, under both bytecode pipelines, and both must
// agree with the tree reference. This is the invariant the disk cache
// leans on: a warm start runs decoded bytes, never the original
// in-memory program.
func TestCodecEngineIdentity(t *testing.T) {
	programs := suite.Programs
	variants := oracle.DefaultVariants()
	if testing.Short() {
		programs = programs[:2]
	}
	for _, p := range programs {
		for _, v := range variants {
			t.Run(p.Name+"/"+v.String(), func(t *testing.T) {
				opts := v.Options()
				opts.Filename = p.Name + ".mf"
				prog, err := nascent.Compile(p.Source, opts)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				cfg := nascent.RunConfig{Engine: nascent.EngineTree}
				ref, err := prog.RunWith(cfg)
				if err != nil {
					t.Fatalf("tree run: %v", err)
				}

				for _, optimized := range []bool{false, true} {
					var fresh *vm.Program
					if optimized {
						fresh, err = vm.CompileOptimized(prog.IR)
					} else {
						fresh, err = vm.Compile(prog.IR)
					}
					if err != nil {
						t.Fatalf("vm compile (optimized=%v): %v", optimized, err)
					}
					enc := progio.Encode(fresh)
					decoded, err := progio.Decode(enc)
					if err != nil {
						t.Fatalf("decode (optimized=%v): %v", optimized, err)
					}
					if re := progio.Encode(decoded); !bytes.Equal(enc, re) {
						t.Fatalf("re-encode differs (optimized=%v)", optimized)
					}

					freshRes, freshErr := fresh.Run(nascent.RunConfig{})
					decRes, decErr := decoded.Run(nascent.RunConfig{})
					if (freshErr == nil) != (decErr == nil) {
						t.Fatalf("decoded error mismatch (optimized=%v): fresh=%v decoded=%v", optimized, freshErr, decErr)
					}
					if decRes != freshRes {
						t.Fatalf("decoded run diverges from fresh (optimized=%v):\nfresh:   %+v\ndecoded: %+v", optimized, freshRes, decRes)
					}
					if decRes != ref {
						t.Fatalf("decoded bytecode diverges from tree reference (optimized=%v):\ntree:    %+v\ndecoded: %+v", optimized, ref, decRes)
					}
				}
			})
		}
	}
}
