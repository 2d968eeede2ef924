package service

import (
	"container/list"
	"encoding/hex"
	"sort"
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
	jit          *vm.JitHandle // vmjit entries: closure tier and tier counters per cache entry
	engine       nascent.Engine
	staticChecks int
	opt          *nascent.OptReport
}

// Run executes the cached program under cfg; it satisfies
// evalpool.Runner so cache hits ride the pool's supervision unchanged.
// vmjit entries run through their JitHandle, so repeated requests for
// the same cache entry share its counters and its closure tier, which
// compiled once, at fill.
func (c *compiled) Run(cfg nascent.RunConfig) (nascent.RunResult, error) {
	switch {
	case c.jit != nil:
		return c.jit.Run(cfg)
	case c.vmProg != nil:
		return c.vmProg.Run(cfg)
	}
	return c.prog.RunWith(cfg)
}

// wrapJit attaches a JitHandle to a vmjit entry, closure-compiling it
// inside the entry's once-guarded fill. The handle lives exactly as
// long as the cache entry, so an eviction also drops its tier state —
// by design, since tier state must never outlive the artifact it
// describes.
func (c *compiled) wrapJit() {
	if c.vmProg != nil && c.engine == nascent.EngineVMJit {
		c.jit = vm.NewJitHandle(c.vmProg)
	}
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

// TierProgramSnapshot is the wire form of one vmjit cache entry's
// JitHandle state: which tier the program is serving from and the run
// and promotion counters that got it there.
type TierProgramSnapshot struct {
	// Key identifies the program: a hex prefix of its cache key.
	Key          string `json:"key"`
	Engine       string `json:"engine"`
	Tier         string `json:"tier"`
	Runs         uint64 `json:"runs"`
	Instructions uint64 `json:"instructions"`
	Promotions   uint64 `json:"promotions"`
	Demotions    uint64 `json:"demotions"`
}

// tierPrograms snapshots the tier state of every filled vmjit cache
// entry, sorted by key for a stable wire order. The service cache is
// the only holder of vmjit handles that outlive one run, so these rows
// cover every handle the server keeps.
func (c *Cache) tierPrograms() []TierProgramSnapshot {
	c.mu.Lock()
	type slot struct {
		key cacheKey
		ent *cacheEntry
	}
	slots := make([]slot, 0, len(c.entries))
	for k, e := range c.entries {
		slots = append(slots, slot{k, e})
	}
	c.mu.Unlock()

	var rows []TierProgramSnapshot
	for _, s := range slots {
		// Only inspect filled entries; an in-flight fill's c is not
		// published yet and must not be raced (filled is stored after
		// c, so observing it true makes c safe to read).
		ent := s.ent
		if !ent.filled.Load() || ent.c == nil || ent.c.jit == nil {
			continue
		}
		js := ent.c.jit.Snapshot()
		rows = append(rows, TierProgramSnapshot{
			Key:          hex.EncodeToString(s.key[:8]),
			Engine:       ent.c.engine.String(),
			Tier:         js.Tier,
			Runs:         js.Runs,
			Instructions: js.Instrs,
			Promotions:   js.Promotions,
			Demotions:    js.Demotions,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
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
