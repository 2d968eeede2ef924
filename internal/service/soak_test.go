package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nascent/internal/chaos"
	"nascent/internal/suite"
)

// The CI soak (.github/workflows/ci.yml, soak-smoke) runs nascentd
// under the chaos spec in testdata/soak.chaos and posts three programs:
// testdata/soak.mf on vmopt, and the irregular histogram and
// gather_tail on vmrce, all under LLS. It then requires the disk-cache
// scrubber to have found a corrupt entry, which happens only if the
// spec's seed fires progcache.scrub.corrupt on the stem of one of
// those entries.
func soakRequests(t *testing.T) []RunRequest {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "soak.mf"))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []RunRequest{{CompileRequest: CompileRequest{
		Source: string(src), Options: Options{Scheme: "lls"}, Engine: "vmopt",
	}}}
	for _, p := range suite.Irregular {
		if p.Name == "histogram" || p.Name == "gather_tail" {
			reqs = append(reqs, RunRequest{CompileRequest: CompileRequest{
				Source: p.Source, Filename: p.Name + ".mf", Options: Options{Scheme: "lls"}, Engine: "vmrce",
			}})
		}
	}
	return reqs
}

// TestSoakSeedCorruptsAnEntry pins the CI soak's seed: with the three
// soak programs cached on disk, chaos.Decide under the soak spec fires
// progcache.scrub.corrupt on at least one entry's stem, so the soak's
// `.disk_cache.scrub_corrupt >= 1` check can hold. A change to the
// cache key derivation or to the programs moves the stems; pick a new
// seed with this test when it fails.
func TestSoakSeedCorruptsAnEntry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "soak.chaos"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := chaos.ParseSpec(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	defer s.Drain(context.Background())
	for _, req := range soakRequests(t) {
		if w := do(t, s, "POST", "/run", req, nil); w.Code != http.StatusOK {
			t.Fatalf("run %s: status %d, body %s", req.Filename, w.Code, w.Body.String())
		}
	}
	stems, err := filepath.Glob(filepath.Join(dir, "*.npc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stems) != 3 {
		t.Fatalf("%d disk entries, want 3: %v", len(stems), stems)
	}
	fired := 0
	for _, path := range stems {
		stem := strings.TrimSuffix(filepath.Base(path), ".npc")
		if chaos.Decide(spec, chaos.SiteScrubCorrupt, stem) {
			fired++
		}
	}
	t.Logf("%s fires %s on %d of %d soak entries", spec, chaos.SiteScrubCorrupt, fired, len(stems))
	if fired == 0 {
		t.Errorf("%s fires %s on none of the soak entries", spec, chaos.SiteScrubCorrupt)
	}
}
