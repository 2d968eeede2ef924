package chaos

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []Spec{
		{Seed: 42, Rate: 0.05},
		{Seed: 7, Rate: 1, Site: SiteOptPanic},
		{Seed: 0, Rate: 0.125, Site: SiteVMPanic},
	} {
		got, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec.String(), err)
		}
		if got != spec {
			t.Errorf("round trip %q: got %+v, want %+v", spec.String(), got, spec)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"", "42", "x:0.5", "42:nope", "42:-0.1", "42:1.5", "42:NaN",
		"42:0.5:no.such.site",
	} {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) = nil error, want failure", text)
		}
	}
}

func TestDecideDeterministic(t *testing.T) {
	spec := Spec{Seed: 99, Rate: 0.5}
	for _, site := range Sites {
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("key-%d", k)
			a := Decide(spec, site, key)
			for i := 0; i < 3; i++ {
				if b := Decide(spec, site, key); b != a {
					t.Fatalf("Decide(%v, %s, %s) flapped: %v then %v", spec, site, key, a, b)
				}
			}
		}
	}
}

func TestDecideRateExtremes(t *testing.T) {
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("key-%d", k)
		if Decide(Spec{Seed: 1, Rate: 0}, SiteOptPanic, key) {
			t.Fatalf("rate 0 fired for %s", key)
		}
		if !Decide(Spec{Seed: 1, Rate: 1}, SiteOptPanic, key) {
			t.Fatalf("rate 1 did not fire for %s", key)
		}
	}
}

func TestDecideRateIsRoughlyCalibrated(t *testing.T) {
	spec := Spec{Seed: 1234, Rate: 0.2}
	fired := 0
	const n = 5000
	for k := 0; k < n; k++ {
		if Decide(spec, SiteTreeBudget, fmt.Sprintf("key-%d", k)) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-spec.Rate) > 0.05 {
		t.Errorf("empirical rate %.3f, want ~%.2f", got, spec.Rate)
	}
}

func TestSiteFilter(t *testing.T) {
	spec := Spec{Seed: 5, Rate: 1, Site: SiteOptPanic}
	if !Decide(spec, SiteOptPanic, "j#0") {
		t.Error("filtered-in site did not fire at rate 1")
	}
	for _, site := range Sites {
		if site == SiteOptPanic {
			continue
		}
		if Decide(spec, site, "j#0") {
			t.Errorf("site filter %s leaked into %s", spec.Site, site)
		}
	}
}

func TestMultiSiteSpec(t *testing.T) {
	armed := []Site{SiteOptPanic, SiteTreeBudget, SiteAuditMismatch}
	text := "11:1:optimize.panic,tree.poll.budget,service.audit.mismatch"
	spec, err := ParseSpec(text)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", text, err)
	}
	if got := spec.String(); got != text {
		t.Errorf("multi-site spec did not round-trip: got %q, want %q", got, text)
	}
	for _, site := range armed {
		if !Decide(spec, site, "j#0") {
			t.Errorf("armed site %s did not fire at rate 1", site)
		}
	}
	for _, site := range Sites {
		if site == armed[0] || site == armed[1] || site == armed[2] {
			continue
		}
		if Decide(spec, site, "j#0") {
			t.Errorf("multi-site filter leaked into %s", site)
		}
	}
	// A list with one bad entry is rejected wholesale.
	if _, err := ParseSpec("11:1:optimize.panic,no.such.site"); err == nil {
		t.Error("ParseSpec accepted a list containing an unknown site")
	}
}

func TestSitesDistinguished(t *testing.T) {
	// Different sites with the same key must roll independent dice:
	// at rate 0.5 across 14+ sites, at least one pair must disagree.
	spec := Spec{Seed: 3, Rate: 0.5}
	seen := map[bool]bool{}
	for _, site := range Sites {
		seen[Decide(spec, site, "same-key")] = true
	}
	if len(seen) != 2 {
		t.Errorf("all %d sites rolled the same fate for one key; sites are not independent", len(Sites))
	}
}

func TestFireDisabledIsInert(t *testing.T) {
	Disable()
	if Active() {
		t.Fatal("Active() after Disable")
	}
	if Fire(SiteOptPanic, "k") {
		t.Error("Fire fired while disabled")
	}
	if err := InjectError(SiteParseError, "k"); err != nil {
		t.Errorf("InjectError returned %v while disabled", err)
	}
	if s := SpecString(); s != "" {
		t.Errorf("SpecString() = %q while disabled, want empty", s)
	}
}

func TestFireRecordsAndReplays(t *testing.T) {
	spec := Spec{Seed: 11, Rate: 1, Site: SiteOptPanic}
	Enable(spec)
	defer Disable()

	if !Fire(SiteOptPanic, "main") {
		t.Fatal("rate-1 site did not fire")
	}
	if Fire(SiteVMPanic, "main") {
		t.Fatal("site filter ignored")
	}
	recs := Records()
	if len(recs) != 1 || recs[0].Site != SiteOptPanic || recs[0].Key != "main" {
		t.Fatalf("Records() = %+v, want one optimize.panic/main record", recs)
	}
	if Fired() != 1 {
		t.Errorf("Fired() = %d, want 1", Fired())
	}
	// The logged spec replays: parsing the record's spec string yields
	// the installed spec, and the decision re-fires.
	replay, err := ParseSpec(recs[0].Spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if replay != spec || !Decide(replay, recs[0].Site, recs[0].Key) {
		t.Errorf("record %+v does not replay under spec %v", recs[0], replay)
	}
}

func TestInjectErrorTyped(t *testing.T) {
	Enable(Spec{Seed: 1, Rate: 1, Site: SiteSemError})
	defer Disable()
	err := InjectError(SiteSemError, "k")
	if err == nil {
		t.Fatal("no injected error at rate 1")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("errors.Is(%v, ErrInjected) = false", err)
	}
	wrapped := fmt.Errorf("analyze: %w", err)
	if !errors.Is(wrapped, ErrInjected) {
		t.Errorf("wrap chain lost ErrInjected: %v", wrapped)
	}
	if !InjectedMessage(wrapped) {
		t.Errorf("InjectedMessage(%v) = false", wrapped)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != SiteSemError {
		t.Errorf("errors.As site = %+v, want sem.error", ie)
	}
}

func TestEnableResetsRecords(t *testing.T) {
	Enable(Spec{Seed: 1, Rate: 1})
	Fire(SiteOptPanic, "x")
	Enable(Spec{Seed: 2, Rate: 1})
	defer Disable()
	if n := len(Records()); n != 0 {
		t.Errorf("Records() after re-Enable has %d entries, want 0", n)
	}
	if Fired() != 0 {
		t.Errorf("Fired() after re-Enable = %d, want 0", Fired())
	}
}

func TestSourceKeyStable(t *testing.T) {
	a, b := SourceKey("program p\nend\n"), SourceKey("program p\nend\n")
	if a != b {
		t.Errorf("SourceKey not stable: %q vs %q", a, b)
	}
	if SourceKey("x") == SourceKey("y") {
		t.Error("distinct sources share a key")
	}
}

func BenchmarkActiveDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if Fire(SiteTreeBudget, "") {
			b.Fatal("fired while disabled")
		}
	}
}
