package progcache

import (
	"bytes"
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
// second buffer made 17 to 20 per suite program. The count is taken on
// appendEnvelope with the image and meta built outside the measured
// call, so it does not depend on json.Marshal's buffer pool (which the
// race detector drains at random).
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
		meta, err := json.Marshal(cacheMeta{StaticChecks: e.StaticChecks, Opt: e.Opt})
		if err != nil {
			t.Fatal(err)
		}
		im := vp.Image()
		var out []byte
		if n := testing.AllocsPerRun(20, func() { out = appendEnvelope(meta, im) }); n != 1 {
			t.Errorf("%s: appendEnvelope made %v allocations, want 1", p.Name, n)
		}
		if whole, err := encodeEnvelope(e); err != nil || !bytes.Equal(whole, out) {
			t.Errorf("%s: encodeEnvelope differs from appendEnvelope over the same parts (err %v)", p.Name, err)
		}
	}
}
