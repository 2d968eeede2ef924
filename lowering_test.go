package nascent_test

import (
	"sync"
	"testing"

	"nascent"
	"nascent/internal/ir"
	"nascent/internal/oracle"
	"nascent/internal/report"
	"nascent/internal/suite"
)

// TestSharedLoweringsStayUnchanged pins the copy-on-write contract of
// shared lowerings: every job of a Tables 1–3 regeneration at four
// workers, and every variant of an oracle sweep on all engines,
// optimizes and runs a fork of its front end's lowering, and afterwards
// each shared lowering still fingerprints like a fresh irbuild.Build of
// the same program. An optimizer pass that edits a statement in place
// instead of replacing it fails here. Run under -race in CI, it also
// checks that concurrent jobs only read what they share.
func TestSharedLoweringsStayUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in short mode")
	}
	type lowering struct {
		shared *ir.Program
		fresh  func() (*ir.Program, error)
	}
	var (
		mu   sync.Mutex
		kept []lowering
	)
	defer nascent.OnSharedLowering(func(shared *ir.Program, fresh func() (*ir.Program, error)) {
		mu.Lock()
		kept = append(kept, lowering{shared, fresh})
		mu.Unlock()
	})()

	r := report.New(report.Config{Jobs: 4})
	for n, table := range []func() (string, error){r.Table1, r.Table2, r.Table3} {
		if _, err := table(); err != nil {
			t.Fatalf("table %d: %v", n+1, err)
		}
	}
	p, err := suite.Get("mdg")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := oracle.Verify(p.Source, oracle.Config{Jobs: 4, Engines: nascent.AllEngines()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatal(rep.Summary())
	}

	// One checked lowering per suite program, plus the oracle's.
	if want := len(suite.Programs) + 1; len(kept) != want {
		t.Errorf("%d shared lowerings, want %d", len(kept), want)
	}
	for _, l := range kept {
		fresh, err := l.fresh()
		if err != nil {
			t.Fatal(err)
		}
		if l.shared.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("shared lowering of %s changed:\n%s", l.shared.Main().Name, l.shared.Dump())
		}
	}
}
