package ir_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"nascent"
	"nascent/internal/conformance"
)

// TestFingerprintEqualMeansEqualRuns compiles the conformance corpus
// under the naive, LLS and ALL schemes and runs every build on the tree
// and vmopt engines: builds that share a fingerprint must produce the
// same result, counters, trap and output included, on both.
func TestFingerprintEqualMeansEqualRuns(t *testing.T) {
	type outcome struct {
		name string
		res  [2]string
	}
	engines := [2]nascent.Engine{nascent.EngineTree, nascent.EngineVMOpt}
	byFP := map[[sha256.Size]byte]outcome{}
	shared := 0
	for _, c := range conformance.Corpus {
		for _, scheme := range []nascent.Scheme{nascent.Naive, nascent.LLS, nascent.ALL} {
			name := fmt.Sprintf("%s/%v", c.Name, scheme)
			prog, err := nascent.Compile(c.Src, nascent.Options{Filename: c.Name + ".mf", BoundsChecks: true, Scheme: scheme})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got outcome
			got.name = name
			for i, eng := range engines {
				res, err := prog.RunWith(nascent.RunConfig{Engine: eng})
				got.res[i] = fmt.Sprintf("%+v err=%v", res, err)
			}
			fp := prog.IR.Fingerprint()
			prev, ok := byFP[fp]
			if !ok {
				byFP[fp] = got
				continue
			}
			shared++
			for i, eng := range engines {
				if got.res[i] != prev.res[i] {
					t.Errorf("%s and %s share a fingerprint but differ under %v:\n%s\n%s",
						prev.name, name, eng, prev.res[i], got.res[i])
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two builds share a fingerprint: the test compares nothing")
	}
	t.Logf("%d builds, %d distinct fingerprints", 3*len(conformance.Corpus), len(byFP))
}
