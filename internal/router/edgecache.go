package router

// The router's edge cache: seq-validated zero-hop reads.
//
// The interactive loop is read-dominated — groups poll packages and
// refinement state far more often than they mutate — yet every routed
// GET pays a full proxy hop to a shard, even when the shard itself
// answers from its version-keyed byte cache. The edge cache removes
// that hop for hot city-scoped GETs: a bounded LRU of rendered
// responses keyed by (city, path, query). The shard stamps each render
// with three facts the cache keeps beside the bytes:
//
//   - X-GT-Applied-Seq: the city's applied WAL sequence A when the
//     render started, a lower bound on the state the body reflects;
//   - X-GT-Epoch: the replication term of the node that rendered it;
//   - X-GT-Entity: the one entity the body depends on — "static" (city
//     info, POIs), "group/{id}" or "package/{id}".
//
// Mutation acks carry the same entity beside their commit token, and
// each WAL record is one mutation, so a city's sequence numbers are
// dense and every one of them names exactly one changed entity.
//
// The freshness contract — when may a cached entry serve? A reader's
// floor is
//
//	F = max( requester's session floor,
//	         the health feed's max appliedSeq for the city,
//	         the newest commit this router proxied for the city )
//
// and an entry of the current epoch, rendered at A for entity E, serves
// when either
//
//  1. A >= F — the render is at least as new as anything the reader
//     may demand; or
//  2. the city's change log proves E unchanged over (A, F]: every seq
//     in that range is in the log and none of them names E. E's state
//     at A then equals its state at F.
//
//   - The session floor (commit token / X-GT-Min-Seq / gt-session
//     cookie) preserves read-your-writes exactly: the writer's own seq
//     lies in (A, F] and names the entity it changed, so only a render
//     at or past the write can serve that entity to the writer.
//   - The change log is a bounded per-city, per-epoch ring built from
//     the commit tokens of the mutations this router proxies, recorded
//     before the ack relays: a reader arriving after a mutation's
//     response can never hit bytes of the changed entity rendered
//     before it, while every other entity keeps serving.
//   - The health-feed bound caps staleness for writes this router never
//     saw (another router's, direct writes at the primary): they leave
//     holes in the log, so no proof spans them and rule 1 alone applies
//     — once any node reports a newer applied sequence, every older
//     entry of the city stops serving. Staleness stays within the poll
//     window token-less reads already accept from a -shed-lag follower.
//
// Where the log cannot prove rule 2, rule 1 applies unchanged; each
// such lookup counts in gt_router_edgecache_fallbacks_total{reason}:
// "gap" (a seq the router never saw: a bypassing write, or an ack still
// in flight or out of order — a hole more than reorderWindow seqs behind
// the newest commit is given up on and the log restarts past it),
// "wrap" (the render is older than the ring's reach), "epoch" (counted
// once per term change, not per lookup: a promotion's new history
// reuses seqs, so the change purges the city's entries and restarts its
// log, and renders from an older term are never stored), "pinned" (a
// pin-to-primary token from a failed WAL append: its entity is purged
// and the log restarts; the session stays pinned to the primary) and
// "unstamped" (a render or commit without X-GT-Entity, from an older
// shard). Each lookup is O(1): the log keeps, per entity, the newest
// recorded seq that named it.
//
// Entries without a seq stamp are never cached: no sequence space means
// no way to validate freshness, so persistence-less backends simply
// keep paying the proxy hop.
//
// Concurrent misses for one key collapse into a single upstream fill
// (singleflight, the same idiom as the shard's build dedup): a
// thundering herd on a hot group costs one proxy hop instead of N.
// Waiters re-validate the filled entry against their own floor — a
// pinned waiter whose floor the fill cannot prove falls through to its
// own upstream read rather than trust a staler rider.

import (
	"container/list"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"grouptravel/internal/telemetry"
)

const (
	// DefaultEdgeCacheMax bounds the edge cache's entry count. It also
	// sets the length of each city's change log: a render older than that
	// many commits is refilled rather than proven.
	DefaultEdgeCacheMax = 4096
	// maxEdgeBody keeps giant renders from pinning router memory; larger
	// responses relay uncached.
	maxEdgeBody = 1 << 20
	// maxEdgeKeyQuery bounds the query-string part of a cache key — the
	// same guard the shard's byte cache applies, so arbitrary query
	// strings cannot mint unbounded key space. Longer queries are routed
	// but never cached or coalesced.
	maxEdgeKeyQuery = 200
	// minChangeLog floors a change log's length for tiny caches.
	minChangeLog = 64
	// reorderWindow is how far the newest recorded commit may run ahead
	// of a missing seq before the log stops waiting for its ack: acks of
	// concurrently proxied mutations can arrive out of order, but a hole
	// this old is a write that bypassed this router.
	reorderWindow = 32
	// pinnedSeq is the shard's pin-to-primary commit token, handed out
	// when a write's WAL append failed: no replica will ever report it.
	pinnedSeq = math.MaxInt64
)

// HeaderEdge marks a response served from the router's edge cache
// ("hit") — the observability hook tests and curl read.
const HeaderEdge = "X-GT-Edge"

// edgeEntry is one cached rendered response.
type edgeEntry struct {
	key    string
	city   string
	entity string // X-GT-Entity the shard stamped; "" when unstamped
	seq    int64  // applied sequence the shard stamped at render
	epoch  int64  // replication term of the rendering node
	ctype  string
	body   []byte
}

// fallback is why a lookup fell back from the change-log proof to the
// plain A >= F rule.
type fallback int

const (
	fallbackGap fallback = iota
	fallbackWrap
	fallbackEpoch
	fallbackPinned
	fallbackUnstamped
	numFallbacks
)

var fallbackNames = [numFallbacks]string{"gap", "wrap", "epoch", "pinned", "unstamped"}

// changeLog is one city's record, within one replication epoch, of which
// entity each recent commit changed. Every seq in (lo, hi] is recorded;
// seqs in (hi, max] may still have holes. lo < 0 means nothing has been
// recorded since the log (re)started.
type changeLog struct {
	epoch  int64
	lo, hi int64
	max    int64            // newest commit seen this epoch: part of every reader's floor
	why    fallback         // what last moved lo past recorded history
	slots  []logSlot        // ring indexed by seq % len
	last   map[string]int64 // entity -> newest recorded seq naming it
}

type logSlot struct {
	seq    int64
	entity string
}

// advance extends hi over the recorded seqs that follow it.
func (l *changeLog) advance() {
	n := int64(len(l.slots))
	for l.hi < l.max && l.slots[(l.hi+1)%n].seq == l.hi+1 {
		l.hi++
	}
}

// restart forgets the recorded history: only renders at or past the
// newest commit can be proven from here on.
func (l *changeLog) restart(why fallback) {
	l.lo, l.hi, l.why = l.max, l.max, why
	if l.max == 0 {
		l.lo, l.hi = -1, -1
	}
}

// record notes that the commit at seq changed entity.
func (l *changeLog) record(seq int64, entity string) {
	n := int64(len(l.slots))
	if seq > l.max {
		l.max = seq
	}
	if l.lo < 0 {
		l.lo, l.hi = seq-1, seq-1
	}
	if l.lo < l.max-n { // the ring holds only the newest n seqs
		l.lo, l.why = l.max-n, fallbackWrap
	}
	if seq > l.lo {
		slot := &l.slots[seq%n]
		if slot.seq != seq {
			if slot.seq > 0 && l.last[slot.entity] == slot.seq {
				delete(l.last, slot.entity)
			}
			*slot = logSlot{seq: seq, entity: entity}
			if l.last[entity] < seq {
				l.last[entity] = seq
			}
		}
	}
	if l.hi < l.lo {
		l.hi = l.lo
	}
	l.advance()
	if l.max-l.hi > reorderWindow {
		l.lo, l.hi, l.why = l.max-reorderWindow, l.max-reorderWindow, fallbackGap
		l.advance()
	}
}

// edgeCache is the bounded LRU plus the per-city change logs and the
// singleflight fill table. One instance per router, shared by every
// city; the LRU bound is the memory bound.
type edgeCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*list.Element // key -> *edgeEntry element
	lru   *list.List               // front = most recently served
	logs  map[string]*changeLog    // city -> change log
	fills map[string]*edgeFill

	hits          *telemetry.Counter
	misses        *telemetry.Counter
	coalesced     *telemetry.Counter
	invalidations *telemetry.Counter
	proven        *telemetry.Counter
	fallbacks     [numFallbacks]*telemetry.Counter
}

// edgeFill is one in-flight singleflight fill. done closes when the
// leader finished; entry is nil when the fill failed or the response was
// uncacheable.
type edgeFill struct {
	done  chan struct{}
	entry *edgeEntry
}

func newEdgeCache(cap int, ctr counters) *edgeCache {
	if cap <= 0 {
		cap = DefaultEdgeCacheMax
	}
	return &edgeCache{
		cap:           cap,
		m:             make(map[string]*list.Element),
		lru:           list.New(),
		logs:          make(map[string]*changeLog),
		fills:         make(map[string]*edgeFill),
		hits:          ctr.edgeHits,
		misses:        ctr.edgeMisses,
		coalesced:     ctr.edgeCoalesced,
		invalidations: ctr.edgeInvalidations,
		proven:        ctr.edgeProven,
		fallbacks:     ctr.edgeFallbacks,
	}
}

// edgeKey builds the cache key. City is part of the key even though the
// path contains it, so invalidation can match entries by city without
// parsing paths back apart.
func edgeKey(city, path, rawQuery string) string {
	return city + "\x00" + path + "?" + rawQuery
}

// edgeCacheable is the explicit route guard: which routed reads may
// touch the edge cache at all. The replication stream (/wal, long-poll
// or push — flushed chunk by chunk, held open arbitrarily long) must
// relay untouched; /metrics and /healthz are live gauges even when a
// backend serves them under a city prefix; and an unbounded query
// string must not mint unbounded key space. Everything the guard
// rejects is routed exactly as before — never cached, never coalesced.
func edgeCacheable(rest, rawQuery string) bool {
	switch rest {
	case "wal", "metrics", "healthz":
		return false
	}
	if len(rawQuery) > maxEdgeKeyQuery {
		return false
	}
	// Streamed/long-poll parameters on any route: a response the backend
	// trickles must pass through, not buffer into a cache fill.
	if rawQuery != "" && (hasQueryParam(rawQuery, "stream") || hasQueryParam(rawQuery, "wait")) {
		return false
	}
	return true
}

// hasQueryParam reports whether the raw query names the parameter,
// without allocating url.Values on the hot path.
func hasQueryParam(rawQuery, name string) bool {
	for q := rawQuery; q != ""; {
		var pair string
		if i := strings.IndexByte(q, '&'); i >= 0 {
			pair, q = q[:i], q[i+1:]
		} else {
			pair, q = q, ""
		}
		if i := strings.IndexByte(pair, '='); i >= 0 {
			pair = pair[:i]
		}
		if pair == name {
			return true
		}
	}
	return false
}

// logLocked returns the city's change log, moved to term first when the
// caller has seen a newer one. A term change means a promotion: the new
// primary's history reuses seqs the deposed one already handed out, so
// nothing rendered or recorded under the old term can be trusted — the
// city's entries purge and its log restarts empty. Caller holds ec.mu.
func (ec *edgeCache) logLocked(city string, term int64) *changeLog {
	l := ec.logs[city]
	if l == nil {
		l = &changeLog{lo: -1, hi: -1, slots: make([]logSlot, max(ec.cap, minChangeLog)), last: make(map[string]int64)}
		ec.logs[city] = l
	}
	if term > l.epoch {
		if purged := ec.purgeLocked(city, ""); purged || l.max > 0 {
			ec.fallbacks[fallbackEpoch].Inc()
		}
		clear(l.slots)
		*l = changeLog{epoch: term, lo: -1, hi: -1, slots: l.slots, last: make(map[string]int64)}
	}
	return l
}

// fresh decides whether e may serve a reader whose own floor (session
// and health feed) is floor; see the contract above. served is the seq
// the response may claim in X-GT-Applied-Seq — the render's own stamp,
// or the reader's floor when the change log proved the entity unchanged
// up to it — and 0 when e may not serve. When the change log could not
// decide, fb names why and isFB is set. The caller holds ec.mu.
func (l *changeLog) fresh(e *edgeEntry, floor int64) (served int64, fb fallback, isFB bool) {
	if e.epoch != l.epoch {
		return 0, 0, false // a term change purged the city and counted once
	}
	f := max(floor, l.max)
	switch {
	case e.seq >= f:
		return e.seq, 0, false
	case f == pinnedSeq:
		return 0, fallbackPinned, true
	case e.entity == "":
		return 0, fallbackUnstamped, true
	case l.lo < 0 || f > l.hi:
		return 0, fallbackGap, true
	case e.seq < l.lo:
		return 0, l.why, true
	case l.last[e.entity] > e.seq:
		return 0, 0, false
	}
	return f, 0, false
}

// get returns the entry for key when it may serve a reader with the
// given floor (the max of its session floor and the health-feed bound),
// refreshing its LRU position, and the seq the response may claim.
// term is the shard's replication epoch as the health feed knows it.
// The city's newest proxied commit joins the floor here
// unconditionally, so no caller can forget it.
func (ec *edgeCache) get(key, city string, floor, term int64) (*edgeEntry, int64) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	el, ok := ec.m[key]
	if !ok {
		// No log is created here: a city name only gets one once a shard
		// answered for it (put) or acked a write in it (note).
		ec.misses.Inc()
		return nil, 0
	}
	e := el.Value.(*edgeEntry)
	served, fb, isFB := ec.logLocked(city, term).fresh(e, floor)
	if served == 0 {
		if isFB {
			ec.fallbacks[fb].Inc()
		}
		ec.misses.Inc()
		return nil, 0
	}
	if served > e.seq {
		ec.proven.Inc()
	}
	ec.lru.MoveToFront(el)
	ec.hits.Inc()
	return e, served
}

// check re-validates a filled entry for a coalesced waiter, returning
// the seq the response may claim (0: the waiter must not use it).
func (ec *edgeCache) check(e *edgeEntry, floor int64) int64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	served, _, _ := ec.logLocked(e.city, e.epoch).fresh(e, floor)
	return served
}

// put stores an entry, evicting from the LRU tail past cap. An entry
// that could not serve even a token-less reader — rendered under an
// older term, or before a commit to its entity (or one the log cannot
// account for) — is dead on arrival and skipped.
func (ec *edgeCache) put(e *edgeEntry) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if served, _, _ := ec.logLocked(e.city, e.epoch).fresh(e, 0); served == 0 {
		return
	}
	if el, ok := ec.m[e.key]; ok {
		// Keep the freshest render: a racing slower fill from a lagging
		// follower must not replace a newer entry.
		if el.Value.(*edgeEntry).seq <= e.seq {
			el.Value = e
			ec.lru.MoveToFront(el)
		}
		return
	}
	ec.m[e.key] = ec.lru.PushFront(e)
	for ec.lru.Len() > ec.cap {
		oldest := ec.lru.Back()
		ec.lru.Remove(oldest)
		delete(ec.m, oldest.Value.(*edgeEntry).key)
	}
}

// note records a proxied mutation's commit token — the seq it committed
// at, the entity it changed, and the term of the node that acked it —
// in the city's change log, before the ack relays. Only that entity's
// entries stop serving. A pinned token names no sequence any replica
// will reach: the entity's entries purge and the log restarts. A token
// without an entity may have changed anything: the log restarts past
// it. An ack from a node still on an older term is a write in a history
// the fleet has already left behind; it cannot make any current render
// stale.
func (ec *edgeCache) note(city string, term, seq int64, entity string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	l := ec.logLocked(city, term)
	if term < l.epoch {
		return
	}
	ec.invalidations.Inc()
	switch {
	case seq == pinnedSeq:
		ec.purgeLocked(city, entity)
		l.restart(fallbackPinned)
	case entity == "":
		l.record(seq, "")
		if seq > l.lo {
			l.lo, l.why = seq, fallbackUnstamped
			l.hi = max(l.hi, seq)
			l.advance()
		}
	default:
		l.record(seq, entity)
	}
}

// purgeCity drops every entry of a city outright — the fallback for a
// mutation that carried no commit token (no sequence space to reason
// about).
func (ec *edgeCache) purgeCity(city string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if ec.purgeLocked(city, "") {
		ec.invalidations.Inc()
	}
}

// purgeLocked drops the city's entries for entity, or all of the city's
// entries when entity is "", and reports whether any went. O(entries):
// it runs only on failed appends, token-less acks and promotions.
// Caller holds ec.mu.
func (ec *edgeCache) purgeLocked(city, entity string) bool {
	var next *list.Element
	purged := false
	for el := ec.lru.Front(); el != nil; el = next {
		next = el.Next()
		if e := el.Value.(*edgeEntry); e.city == city && (entity == "" || e.entity == entity) {
			ec.lru.Remove(el)
			delete(ec.m, e.key)
			purged = true
		}
	}
	return purged
}

// join returns the in-flight fill for key, or registers a new one with
// the caller as leader. leader=false means another request is already
// filling: wait on fill.done.
func (ec *edgeCache) join(key string) (fill *edgeFill, leader bool) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	if f, ok := ec.fills[key]; ok {
		return f, false
	}
	f := &edgeFill{done: make(chan struct{})}
	ec.fills[key] = f
	return f, true
}

// finish publishes the leader's result (entry may be nil) and releases
// the key for future fills.
func (ec *edgeCache) finish(key string, fill *edgeFill, entry *edgeEntry) {
	ec.mu.Lock()
	delete(ec.fills, key)
	ec.mu.Unlock()
	fill.entry = entry
	close(fill.done)
}

// len returns the current entry count (healthz).
func (ec *edgeCache) len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return ec.lru.Len()
}

// writeEdge serves one cached entry: the stored bytes, the applied seq
// the cache validated them at, and the hit marker. No X-GT-Backend — no
// backend served this response.
func writeEdge(w http.ResponseWriter, e *edgeEntry, seq int64, shard string) {
	h := w.Header()
	if e.ctype != "" {
		h.Set("Content-Type", e.ctype)
	}
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	h.Set(HeaderAppliedSeq, strconv.FormatInt(seq, 10))
	h.Set(HeaderShard, shard)
	h.Set(HeaderEdge, "hit")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}
