package progcache

import (
	"encoding/json"
	"testing"

	"nascent"
	"nascent/internal/suite"
	"nascent/internal/vm"
)

// TestEncodeEnvelopeOneBuffer pins the envelope encoder's allocations:
// beyond the program image and the meta JSON it allocates exactly one
// buffer, sized up front, that the header, meta and progio payload are
// written into. Growing the payload from nil and copying it into a
// second buffer made 17 to 20 per suite program.
func TestEncodeEnvelopeOneBuffer(t *testing.T) {
	for _, p := range suite.Programs {
		prog, err := nascent.Compile(p.Source, nascent.Options{BoundsChecks: true, Scheme: nascent.LLS})
		if err != nil {
			t.Fatal(err)
		}
		vp, err := vm.CompileRCE(prog.IR)
		if err != nil {
			t.Fatal(err)
		}
		e := &Entry{Prog: vp, StaticChecks: prog.StaticChecks(), Opt: prog.Opt}
		parts := testing.AllocsPerRun(20, func() {
			vp.Image()
			if _, err := json.Marshal(cacheMeta{StaticChecks: e.StaticChecks, Opt: e.Opt}); err != nil {
				t.Fatal(err)
			}
		})
		whole := testing.AllocsPerRun(20, func() {
			if _, err := encodeEnvelope(e); err != nil {
				t.Fatal(err)
			}
		})
		if extra := whole - parts; extra != 1 {
			t.Errorf("%s: encodeEnvelope made %v allocations beyond Image and the meta JSON, want 1", p.Name, extra)
		}
	}
}
