package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"nascent"
	"nascent/internal/progcache"
	"nascent/internal/vm"
)

// cacheKey is the content address of one compiled program: sha256 over
// (source, filename, options, engine). The derivation lives in
// progcache.KeyOf — the in-memory cache and the disk cache share one
// address space, so a program compiled through either layer is the
// same entry to both.
type cacheKey = progcache.Key

// contentKey computes the cache key of one compile request.
func contentKey(source, filename string, opts nascent.Options, engine nascent.Engine) cacheKey {
	return progcache.KeyOf(source, filename, opts, engine)
}

// compiled is one cached compile artifact. For bytecode engines the
// vm.Program is compiled eagerly at fill time so every subsequent run
// skips straight to execution; for the tree engine runs interpret the
// shared immutable IR directly. Both are safe for concurrent Run calls.
//
// staticChecks and opt carry the compile-response metadata out of the
// frontend: a disk-cache warm start reconstructs them from the cache
// envelope with prog == nil, so nothing downstream may assume the IR
// is present for bytecode entries.
type compiled struct {
	prog         *nascent.Program
	vmProg       *vm.Program
	staticChecks int
	opt          *nascent.OptReport
}

// Run executes the cached program under cfg; it satisfies
// evalpool.Runner so cache hits run on the pool like fresh compiles.
func (c *compiled) Run(cfg nascent.RunConfig) (nascent.RunResult, error) {
	if c.vmProg != nil {
		return c.vmProg.Run(cfg)
	}
	return c.prog.RunWith(cfg)
}

// cacheEntry is a once-guarded singleflight slot: the first request
// compiles, concurrent requests for the same key block on the same
// entry instead of duplicating the work. Failed compiles are cached
// too — recompiling a broken program cannot fix it, and a tenant
// hammering a bad source must not buy CPU with it.
type cacheEntry struct {
	once   sync.Once
	filled atomic.Bool // set after the fill publishes c/err
	c      *compiled
	err    error
	elem   *list.Element // LRU position; nil until linked
}

// Cache is the content-addressed compiled-program cache. All state is
// guarded by mu except the entries' once-guarded fill.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recent; values are cacheKey

	hits      uint64
	misses    uint64
	evictions uint64
}

// CacheStats is the wire form of the cache counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// newCache returns a cache holding at most max compiled programs
// (max <= 0 selects 256).
func newCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{max: max, entries: make(map[cacheKey]*cacheEntry), lru: list.New()}
}

// get returns the compiled program for key, filling it with compile on
// first use. The second result reports a cache hit (an entry that was
// already filled when this request arrived; a request that blocked on
// another request's in-flight fill counts as a hit — the work was
// collapsed).
func (c *Cache) get(key cacheKey, compile func() (*compiled, error)) (*compiled, bool, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{}
		c.entries[key] = e
		e.elem = c.lru.PushFront(key)
		c.misses++
		c.evictLocked()
	} else {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	}
	c.mu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		e.c, e.err = compile()
		e.filled.Store(true)
	})
	return e.c, hit, e.err
}

// evictLocked drops least-recently-used entries beyond capacity. An
// evicted in-flight entry is safe: requests already holding it keep
// their reference and complete; later requests start a fresh entry.
func (c *Cache) evictLocked() {
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(cacheKey)
		c.lru.Remove(back)
		if e := c.entries[key]; e != nil {
			e.elem = nil
			delete(c.entries, key)
		}
		c.evictions++
	}
}

// stats snapshots the cache counters.
func (c *Cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
