package chaos

import (
	"errors"
	"testing"
)

// TestAcquireDrill covers the scoped-drill arming protocol nascentd's
// POST /drill uses: exclusive acquisition, registry arming for the
// drill's scope, idempotent release, and refusal to stack on top of a
// process-global -chaos spec.
func TestAcquireDrill(t *testing.T) {
	if Active() {
		t.Fatal("chaos registry already enabled; drill test needs it off")
	}
	spec := Spec{Seed: 7, Rate: 1, Site: SiteOptPanic}

	release, err := AcquireDrill(spec)
	if err != nil {
		t.Fatalf("AcquireDrill: %v", err)
	}
	got, ok := CurrentSpec()
	if !ok || got != spec {
		t.Fatalf("CurrentSpec() = %v, %v; want %v armed", got, ok, spec)
	}

	// A second drill must be refused, not queued.
	if _, err := AcquireDrill(Spec{Seed: 8, Rate: 1}); !errors.Is(err, ErrDrillBusy) {
		t.Fatalf("concurrent AcquireDrill error = %v, want ErrDrillBusy", err)
	}

	release()
	if Active() {
		t.Fatal("registry still armed after release")
	}
	release() // idempotent: a double release must not unlock a stranger's drill

	// After release the registry is free again.
	release2, err := AcquireDrill(spec)
	if err != nil {
		t.Fatalf("AcquireDrill after release: %v", err)
	}
	release2()
}

// TestAcquireDrillRefusesGlobalChaos: a process started with -chaos
// owns its spec for its lifetime; drills must not silently replace it.
func TestAcquireDrillRefusesGlobalChaos(t *testing.T) {
	Enable(Spec{Seed: 1, Rate: 0.5})
	defer Disable()
	if _, err := AcquireDrill(Spec{Seed: 2, Rate: 1}); err == nil {
		t.Fatal("AcquireDrill succeeded while global injection is enabled")
	} else if errors.Is(err, ErrDrillBusy) {
		t.Fatalf("got ErrDrillBusy, want the global-injection refusal: %v", err)
	}
}
