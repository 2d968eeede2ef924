package service

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"nascent"
)

func key(n byte) cacheKey {
	var k cacheKey
	k[0] = n
	return k
}

// TestCacheSingleflight: concurrent requests for one key run the
// compile exactly once; everyone blocks on the same entry and shares
// the result.
func TestCacheSingleflight(t *testing.T) {
	c := newCache(8)
	var fills atomic.Int32
	var wg sync.WaitGroup
	results := make([]*compiled, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := c.get(key(1), func() (*compiled, error) {
				fills.Add(1)
				return &compiled{}, nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1 (singleflight)", n)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("request %d got a different artifact pointer", i)
		}
	}
}

// TestCacheFailureCached: a failed compile is cached too — hammering a
// broken source must not buy CPU.
func TestCacheFailureCached(t *testing.T) {
	c := newCache(8)
	var fills atomic.Int32
	boom := errors.New("boom")
	fill := func() (*compiled, error) {
		fills.Add(1)
		return nil, boom
	}
	if _, _, err := c.get(key(2), fill); !errors.Is(err, boom) {
		t.Fatalf("first get err = %v", err)
	}
	_, hit, err := c.get(key(2), fill)
	if !errors.Is(err, boom) || !hit {
		t.Fatalf("second get err = %v hit = %v, want cached failure", err, hit)
	}
	if fills.Load() != 1 {
		t.Fatalf("failed compile reran %d times", fills.Load())
	}
}

// TestCacheLRUEviction: capacity bounds the entry count; the least
// recently used key is evicted first and recompiles on return.
func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	fillCount := map[byte]int{}
	fill := func(n byte) func() (*compiled, error) {
		return func() (*compiled, error) {
			fillCount[n]++
			return &compiled{}, nil
		}
	}
	c.get(key(1), fill(1))
	c.get(key(2), fill(2))
	c.get(key(1), fill(1)) // touch 1: now 2 is the LRU victim
	c.get(key(3), fill(3)) // evicts 2

	if st := c.stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction", st)
	}
	// 1 survived; 2 was evicted and must recompile.
	c.get(key(1), fill(1))
	c.get(key(2), fill(2))
	if fillCount[1] != 1 {
		t.Errorf("key 1 compiled %d times, want 1 (still resident)", fillCount[1])
	}
	if fillCount[2] != 2 {
		t.Errorf("key 2 compiled %d times, want 2 (evicted once)", fillCount[2])
	}
}

// TestContentKeyDisambiguation: every input dimension must change the
// content address — no field-boundary aliasing between source and
// filename, and options/engine all participate.
func TestContentKeyDisambiguation(t *testing.T) {
	base := contentKey("src", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree)
	variants := map[string]cacheKey{
		"source":   contentKey("src2", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"filename": contentKey("src", "g.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"boundary": contentKey("srcf", ".mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"checks":   contentKey("src", "f.mf", nascent.Options{}, nascent.EngineTree),
		"scheme":   contentKey("src", "f.mf", nascent.Options{BoundsChecks: true, Scheme: nascent.ALL}, nascent.EngineTree),
		"kind":     contentKey("src", "f.mf", nascent.Options{BoundsChecks: true, Kind: nascent.INX}, nascent.EngineTree),
		"impl":     contentKey("src", "f.mf", nascent.Options{BoundsChecks: true, Implications: nascent.ImplyNone}, nascent.EngineTree),
		"rotate":   contentKey("src", "f.mf", nascent.Options{BoundsChecks: true, RotateLoops: true}, nascent.EngineTree),
		"engine":   contentKey("src", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineVMOpt),
	}
	keys := map[cacheKey]string{base: "base"}
	for name, k := range variants {
		if prev, dup := keys[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		keys[k] = name
	}
}

// TestNoCacheBypassesEveryStore: a no_cache /run neither reads nor
// fills any compiled-program store. With a disk cache configured, two
// identical requests plus fifty under distinct filenames leave the
// memory cache, the disk cache and the pool's frontend memo untouched:
// every request runs its own frontend, and nothing is written.
func TestNoCacheBypassesEveryStore(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, func(c *Config) { c.ProgCacheDir = dir })
	run := func(filename string) RunResponse {
		t.Helper()
		req := RunRequest{
			CompileRequest: CompileRequest{Source: progOK, Filename: filename, Engine: "vmopt"},
			NoCache:        true,
		}
		var resp RunResponse
		if w := do(t, s, "POST", "/run", req, &resp); w.Code != http.StatusOK {
			t.Fatalf("run %s: %d %s", filename, w.Code, w.Body.String())
		}
		if resp.Compile.CacheHit {
			t.Fatalf("run %s: no_cache request reported a cache hit", filename)
		}
		return resp
	}
	first := run("same.mf")
	if second := run("same.mf"); second.Output != first.Output || second.Instructions != first.Instructions {
		t.Fatalf("repeat run diverges: %+v vs %+v", first, second)
	}
	for i := 0; i < 50; i++ {
		run(fmt.Sprintf("p%d.mf", i))
	}

	var m struct {
		Cache     CacheStats `json:"cache"`
		DiskCache struct {
			Hits uint64 `json:"hits"`
			Puts uint64 `json:"puts"`
		} `json:"disk_cache"`
		Pool struct {
			FrontendCompiles int `json:"frontend_compiles"`
			FrontendHits     int `json:"frontend_hits"`
		} `json:"pool"`
	}
	if w := do(t, s, "GET", "/metrics", nil, &m); w.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", w.Code)
	}
	if m.DiskCache.Puts != 0 || m.DiskCache.Hits != 0 {
		t.Errorf("disk_cache puts/hits = %d/%d, want 0/0", m.DiskCache.Puts, m.DiskCache.Hits)
	}
	if m.Pool.FrontendHits != 0 || m.Pool.FrontendCompiles != 52 {
		t.Errorf("pool frontend compiles/hits = %d/%d, want 52/0", m.Pool.FrontendCompiles, m.Pool.FrontendHits)
	}
	if m.Cache.Entries != 0 || m.Cache.Hits != 0 || m.Cache.Misses != 0 {
		t.Errorf("memory cache touched: %+v", m.Cache)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("cache dir holds %d entries (err %v), want none", len(entries), err)
	}
}
