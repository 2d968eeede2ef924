package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWarmStart restarts the service against the same program-cache
// directory and requires the second process generation to serve
// /compile and /run for a known program entirely from disk — no
// frontend, byte-identical responses.
func TestWarmStart(t *testing.T) {
	dir := t.TempDir()
	mkServer := func() *Server {
		return newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	}

	compileReq := CompileRequest{Source: progOK, Options: Options{Scheme: "lls"}, Engine: "vmopt"}
	runReq := RunRequest{CompileRequest: compileReq}

	// Generation 1: cold. Compile populates the disk cache.
	s1 := mkServer()
	var cold CompileResponse
	if w := do(t, s1, "POST", "/compile", compileReq, &cold); w.Code != http.StatusOK {
		t.Fatalf("cold compile: %d %s", w.Code, w.Body.String())
	}
	var coldRun RunResponse
	if w := do(t, s1, "POST", "/run", runReq, &coldRun); w.Code != http.StatusOK {
		t.Fatalf("cold run: %d %s", w.Code, w.Body.String())
	}
	m1 := s1.diskStats()
	if m1 == nil || m1.Puts == 0 {
		t.Fatalf("cold generation wrote nothing to disk: %+v", m1)
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir empty after cold start: %v", err)
	}

	// Generation 2: a fresh Server (empty memory cache, empty pool
	// memos) against the same directory.
	s2 := mkServer()
	var warm CompileResponse
	if w := do(t, s2, "POST", "/compile", compileReq, &warm); w.Code != http.StatusOK {
		t.Fatalf("warm compile: %d %s", w.Code, w.Body.String())
	}
	if warm.CacheHit {
		t.Error("warm compile claimed an in-memory hit in a fresh process")
	}
	m2 := s2.diskStats()
	if m2.Hits == 0 {
		t.Fatalf("warm generation never hit the disk cache: %+v", m2)
	}

	// The warm response must match the cold one field-for-field (modulo
	// the in-memory hit flag): same key, same static check count, same
	// optimizer report — all reconstructed from the envelope without
	// running the frontend.
	cold.CacheHit, warm.CacheHit = false, false
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm compile response diverges:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	var warmRun RunResponse
	if w := do(t, s2, "POST", "/run", runReq, &warmRun); w.Code != http.StatusOK {
		t.Fatalf("warm run: %d %s", w.Code, w.Body.String())
	}
	coldRun.Compile.CacheHit, warmRun.Compile.CacheHit = false, false
	coldJSON, _ := json.Marshal(coldRun)
	warmJSON, _ := json.Marshal(warmRun)
	if string(coldJSON) != string(warmJSON) {
		t.Fatalf("warm run response diverges:\ncold: %s\nwarm: %s", coldJSON, warmJSON)
	}
}

// TestWarmStartCorruption damages the cached entry between
// generations: the warm server must fall back to a fresh compile,
// count the corruption, and still answer identically.
func TestWarmStartCorruption(t *testing.T) {
	dir := t.TempDir()
	compileReq := CompileRequest{Source: progOK, Options: Options{Scheme: "lls"}, Engine: "vmopt"}

	s1 := newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	var cold CompileResponse
	if w := do(t, s1, "POST", "/compile", compileReq, &cold); w.Code != http.StatusOK {
		t.Fatalf("cold compile: %d %s", w.Code, w.Body.String())
	}

	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("want exactly one cache entry, got %d (%v)", len(entries), err)
	}
	path := filepath.Join(dir, entries[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	var warm CompileResponse
	if w := do(t, s2, "POST", "/compile", compileReq, &warm); w.Code != http.StatusOK {
		t.Fatalf("compile after corruption: %d %s", w.Code, w.Body.String())
	}
	m := s2.diskStats()
	if m.Corrupt != 1 || m.Hits != 0 {
		t.Fatalf("corruption not observed as such: %+v", m)
	}
	if m.Puts != 1 {
		t.Fatalf("recompile did not heal the entry: %+v", m)
	}
	cold.CacheHit, warm.CacheHit = false, false
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("post-corruption response diverges:\ncold: %+v\nwarm: %+v", cold, warm)
	}

	// Generation 3 reads the healed entry.
	s3 := newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	if w := do(t, s3, "POST", "/compile", compileReq, &CompileResponse{}); w.Code != http.StatusOK {
		t.Fatalf("compile after heal: %d %s", w.Code, w.Body.String())
	}
	if m := s3.diskStats(); m.Hits != 1 {
		t.Fatalf("healed entry not served from disk: %+v", m)
	}
}
