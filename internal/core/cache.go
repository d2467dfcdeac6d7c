package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"grouptravel/internal/fuzzy"
	"grouptravel/internal/poi"
	"grouptravel/internal/query"
)

// maskBits is the capacity of clusterKey.catsMask: category indices must be
// < maskBits to be encodable. The compile-time guard below breaks the build
// if poi.NumCategories ever outgrows the mask, and catsMask bounds-checks at
// runtime as a second line of defense, so distinct queries can never
// silently collide on one cache key.
const maskBits = 32

var _ [maskBits - poi.NumCategories]struct{}

// clusterKey identifies a memoizable clustering run: the clustering
// parameters plus the set of POI categories the query draws points from.
type clusterKey struct {
	k        int
	m        float64
	iters    int
	seed     int64
	catsMask uint32 // bit c set when the query requests category c (see catsMask)
}

// shard maps the key onto a cache shard with a cheap mix hash.
func (k clusterKey) shard() int {
	h := uint64(k.k) * 0x9e3779b97f4a7c15
	h ^= uint64(k.seed) * 0xbf58476d1ce4e5b9
	h ^= uint64(k.iters) * 0x94d049bb133111eb
	h ^= math.Float64bits(k.m)
	h ^= uint64(k.catsMask) << 17
	h ^= h >> 33
	return int(h % cacheShards)
}

// catsMask encodes which categories the query requests as a bitmask: bit c
// is set iff q.Counts[c] > 0. Category indices ≥ maskBits are rejected
// rather than wrapped, so two different queries can never share a key.
func catsMask(q query.Query) (uint32, error) {
	var mask uint32
	for c, n := range q.Counts {
		if n == 0 {
			continue
		}
		if c >= maskBits {
			return 0, fmt.Errorf("core: category index %d does not fit the %d-bit cluster-cache key", c, maskBits)
		}
		mask |= 1 << uint(c)
	}
	return mask, nil
}

// cacheShards keeps unrelated keys on unrelated mutexes so concurrent
// Builds with different parameters rarely contend.
const cacheShards = 16

// DefaultCacheCap bounds the cluster cache of a fresh engine. The paper
// workloads use at most 16 distinct clusterings (one per seed in Table 2),
// so the default keeps them fully memoized with headroom, while a
// long-lived server facing adversarial parameter diversity stays bounded.
// SetCacheCap overrides it; <= 0 means unbounded.
const DefaultCacheCap = 64

// clustering is one memoized fuzzy clustering plus the Eq. 1 clustering
// term evaluated on it. That term depends on Params.F, which is not part
// of the key: eq1 holds it for the F of the Build that computed the entry
// (every caller in practice), and Build recomputes it for any other F.
type clustering struct {
	res *fuzzy.Result
	f   float64
	eq1 float64 // fuzzy.Eq1Value(relevant points, res, city normalizer, f)
}

// clusterEntry is one memoized clustering run. ready is closed once val
// and err are final; waiters block on it instead of recomputing.
// lastUse is a logical timestamp from the cache's clock, bumped on every
// hit, that orders entries for LRU eviction.
type clusterEntry struct {
	ready   chan struct{}
	val     *clustering
	err     error
	lastUse atomic.Int64
}

// computing reports whether the entry's computation is still in flight.
// In-flight entries are never evicted: waiters hold a pointer to them and
// expect ready to close with a result.
func (e *clusterEntry) computing() bool {
	select {
	case <-e.ready:
		return false
	default:
		return true
	}
}

type cacheShard struct {
	mu      sync.RWMutex
	entries map[clusterKey]*clusterEntry
}

// clusterCache memoizes fuzzy clustering runs. It is sharded (16 ways, by
// key hash) and singleflight-guarded: when n goroutines ask for the same
// key at once, exactly one computes while the rest block on the entry's
// ready channel and then share the result. Failed computations are evicted
// so a later call with the same key can retry.
//
// The cache is bounded: once the number of memoized entries exceeds cap,
// the least-recently-used completed entry is evicted (in-flight entries are
// never victims). Eviction only changes what is memoized, never what a
// Build returns — an evicted clustering is simply recomputed on next use.
type clusterCache struct {
	shards    [cacheShards]cacheShard
	misses    atomic.Int64
	evictions atomic.Int64
	clock     atomic.Int64 // logical time for LRU ordering
	cap       atomic.Int64 // max memoized entries; <= 0 means unbounded
}

func newClusterCache(capacity int) *clusterCache {
	cc := &clusterCache{}
	for i := range cc.shards {
		cc.shards[i].entries = make(map[clusterKey]*clusterEntry)
	}
	cc.cap.Store(int64(capacity))
	return cc
}

// getOrCompute returns the memoized clustering for key, running compute at
// most once per key no matter how many goroutines arrive concurrently.
func (cc *clusterCache) getOrCompute(key clusterKey, compute func() (*clustering, error)) (*clustering, error) {
	sh := &cc.shards[key.shard()]
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok {
		sh.mu.Lock()
		e, ok = sh.entries[key]
		if !ok {
			e = &clusterEntry{ready: make(chan struct{})}
			e.lastUse.Store(cc.clock.Add(1))
			sh.entries[key] = e
			sh.mu.Unlock()
			cc.misses.Add(1)
			// The cleanup runs in a defer so that a panicking compute (like
			// a failing one) evicts the entry and wakes waiters with an
			// error instead of leaving them blocked on ready forever; the
			// panic then propagates to this caller.
			defer func() {
				if e.val == nil && e.err == nil {
					e.err = fmt.Errorf("core: clustering computation for %+v panicked", key)
				}
				if e.err != nil {
					sh.mu.Lock()
					delete(sh.entries, key)
					sh.mu.Unlock()
				}
				close(e.ready)
				if e.err == nil {
					// Completion counts as a use: without this bump a
					// long compute (during which hits advanced the clock)
					// would make the just-finished entry the LRU victim
					// of its own eviction pass, and a regularly-requested
					// key could thrash forever at cap.
					e.lastUse.Store(cc.clock.Add(1))
					cc.evictToCap()
				}
			}()
			e.val, e.err = compute()
			return e.val, e.err
		}
		sh.mu.Unlock()
	}
	e.lastUse.Store(cc.clock.Add(1))
	<-e.ready
	return e.val, e.err
}

// evictToCap removes least-recently-used completed entries until the cache
// fits its cap again. It runs on the inserting goroutine after a successful
// compute — by then the clustering itself dominated the cost, so the scan
// over at most cap+inflight entries is noise. Only one shard lock is held
// at a time, so eviction never deadlocks with lookups.
func (cc *clusterCache) evictToCap() {
	capacity := cc.cap.Load()
	if capacity <= 0 {
		return
	}
	// Only completed entries count against the cap: in-flight computes are
	// not yet memoized results, and counting them would make concurrent
	// distinct builds near the cap evict each other's fresh completions.
	for cc.completedLen() > int(capacity) {
		var (
			victimShard *cacheShard
			victimKey   clusterKey
			victimUse   int64 = math.MaxInt64
		)
		for i := range cc.shards {
			sh := &cc.shards[i]
			sh.mu.RLock()
			for k, e := range sh.entries {
				if e.computing() {
					continue // singleflight waiters depend on this entry
				}
				if u := e.lastUse.Load(); u < victimUse {
					victimUse, victimKey, victimShard = u, k, sh
				}
			}
			sh.mu.RUnlock()
		}
		if victimShard == nil {
			return // everything still computing; nothing evictable yet
		}
		victimShard.mu.Lock()
		// Re-check under the write lock: a hit may have touched the entry
		// (or another evictor removed it) between scan and delete; if so,
		// skip and re-scan rather than evicting a now-hot entry.
		if e, ok := victimShard.entries[victimKey]; ok && e.lastUse.Load() == victimUse {
			delete(victimShard.entries, victimKey)
			cc.evictions.Add(1)
		}
		victimShard.mu.Unlock()
	}
}

// setCap updates the capacity and immediately sheds entries beyond it.
func (cc *clusterCache) setCap(capacity int) {
	cc.cap.Store(int64(capacity))
	cc.evictToCap()
}

// Misses returns how many computations ran (cache misses, including failed
// ones that were evicted).
func (cc *clusterCache) Misses() int64 { return cc.misses.Load() }

// Evictions returns how many completed entries were evicted to honor cap.
func (cc *clusterCache) Evictions() int64 { return cc.evictions.Load() }

// len returns the number of entries across all shards, in-flight included.
func (cc *clusterCache) len() int {
	n := 0
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// completedLen counts only completed (memoized) entries — the population
// the cap governs.
func (cc *clusterCache) completedLen() int {
	n := 0
	for i := range cc.shards {
		sh := &cc.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			if !e.computing() {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// CacheMisses returns how many distinct clusterings the engine has computed
// so far — concurrent Builds sharing a key count as one. Experiments use it
// to verify the cache-sharing contract (each clustering computed exactly
// once); production deployments can export it as a metric.
func (e *Engine) CacheMisses() int64 { return e.cache.Misses() }

// CacheSize returns the number of clusterings currently memoized.
func (e *Engine) CacheSize() int { return e.cache.len() }

// CacheEvictions returns how many memoized clusterings were dropped to keep
// the cache under its cap.
func (e *Engine) CacheEvictions() int64 { return e.cache.Evictions() }

// SetCacheCap bounds the cluster cache at capacity entries (<= 0 removes
// the bound). Safe to call concurrently with Builds; excess entries are
// evicted immediately, least recently used first.
func (e *Engine) SetCacheCap(capacity int) { e.cache.setCap(capacity) }

// CacheStats is a point-in-time snapshot of the cluster cache, exported by
// the server's health endpoint.
type CacheStats struct {
	Size      int   `json:"size"`
	Cap       int   `json:"cap"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// CacheStats returns the engine's current cache counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		Size:      e.cache.len(),
		Cap:       int(e.cache.cap.Load()),
		Misses:    e.cache.Misses(),
		Evictions: e.cache.Evictions(),
	}
}
