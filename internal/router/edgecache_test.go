package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"grouptravel/internal/server"
)

// --- unit: guard, cookie codec, LRU/floor mechanics ---

func TestEdgeCacheableGuard(t *testing.T) {
	long := make([]byte, maxEdgeKeyQuery+1)
	for i := range long {
		long[i] = 'q'
	}
	cases := []struct {
		rest, query string
		want        bool
	}{
		{"", "", true},
		{"groups/7", "", true},
		{"pois", "k=3", true},
		{"wal", "", false},
		{"wal", "from=3", false},
		{"metrics", "", false},
		{"healthz", "", false},
		{"groups/7", string(long), false},
		{"groups/7", "stream=1", false},
		{"groups/7", "wait", false},
		{"groups/7", "k=3&stream", false},
		{"groups/7", "streamer=1", true}, // prefix is not a match
	}
	for _, c := range cases {
		if got := edgeCacheable(c.rest, c.query); got != c.want {
			t.Fatalf("edgeCacheable(%q, %.20q) = %v, want %v", c.rest, c.query, got, c.want)
		}
	}
}

func TestSessionCookieCodec(t *testing.T) {
	v := cookieToken("", "rhodes", 3)
	if v != "rhodes:3" {
		t.Fatalf("cookieToken fresh = %q", v)
	}
	v = cookieToken(v, "smyrna", 5)
	if cookieFloor(v, "rhodes") != 3 || cookieFloor(v, "smyrna") != 5 {
		t.Fatalf("merged cookie %q lost a floor", v)
	}
	// A racing response must never lower an established floor.
	if v := cookieToken("rhodes:9", "rhodes", 3); cookieFloor(v, "rhodes") != 9 {
		t.Fatalf("stale echo lowered the floor: %q", v)
	}
	// Malformed slices degrade to no floor, never an error.
	for _, bad := range []string{"", "rhodes", "rhodes:", "rhodes:x", ":3", "|||", "rhodes:-2"} {
		if f := cookieFloor(bad, "rhodes"); f != 0 {
			t.Fatalf("cookieFloor(%q) = %d, want 0", bad, f)
		}
	}
	// The cookie value must survive net/http's sanitizer byte for byte.
	raw := cookieToken(cookieToken("", "rhodes", 3), "smyrna", 5)
	rec := httptest.NewRecorder()
	http.SetCookie(rec, &http.Cookie{Name: SessionCookie, Value: raw, Path: "/"})
	cks := rec.Result().Cookies()
	if len(cks) != 1 || cks[0].Value != raw {
		t.Fatalf("cookie value mangled by net/http: %+v", cks)
	}
}

func TestEdgeCacheLRUAndFloors(t *testing.T) {
	rt, _ := newRouter(t, Options{Topology: singleShard("http://127.0.0.1:9"), EdgeCache: true, EdgeCacheMax: 2})
	ec := rt.edge
	put := func(key, entity string, seq int64) {
		ec.put(&edgeEntry{key: key, city: "v", entity: entity, seq: seq, body: []byte(key)})
	}
	get := func(key string, floor int64) *edgeEntry {
		e, _ := ec.get(key, "v", floor, 0)
		return e
	}
	put("a", "static", 1)
	put("b", "package/1", 1)
	put("c", "package/2", 1) // evicts a (LRU tail)
	if ec.len() != 2 {
		t.Fatalf("len = %d, want cap 2", ec.len())
	}
	if get("a", 0) != nil {
		t.Fatal("evicted entry still served")
	}
	if e := get("b", 0); e == nil || string(e.body) != "b" {
		t.Fatalf("get(b) = %+v", e)
	}
	// No commit recorded yet: nothing proves seq 2, so the plain rule
	// applies and the entry is below the caller's floor.
	if get("b", 2) != nil {
		t.Fatal("entry below the caller's floor served without a proof")
	}
	if n := rt.ctr.edgeFallbacks[fallbackGap].Value(); n != 1 {
		t.Fatalf("gap fallbacks = %d, want 1", n)
	}

	// A commit to c's entity: c stops serving, b is proven unchanged —
	// for token-less readers and for a session floor at the commit alike.
	ec.note("v", 0, 2, "package/2")
	if get("c", 0) != nil {
		t.Fatal("entry served after a commit to its own entity")
	}
	if e := get("b", 0); e == nil {
		t.Fatal("unrelated commit killed an entry")
	}
	if e, seq := ec.get("b", "v", 2, 0); e == nil || seq != 2 {
		t.Fatalf("session floor at an unrelated commit not proven: %+v served at %d", e, seq)
	}
	put("c", "package/2", 1) // dead on arrival: rendered before its entity's commit
	if get("c", 0) != nil {
		t.Fatal("pre-commit render of the changed entity was stored")
	}
	put("c", "package/2", 2)
	if get("c", 2) == nil {
		t.Fatal("at-floor entry not served")
	}
	// A racing slower fill must not replace a fresher render.
	put("c", "package/2", 7)
	put("c", "package/2", 6)
	if e := get("c", 0); e == nil || e.seq != 7 {
		t.Fatalf("older racing fill replaced a fresher entry: %+v", e)
	}
	// An entry without an entity stamp only ever serves by the plain rule.
	put("u", "", 2)
	if get("u", 0) == nil {
		t.Fatal("unstamped entry at the floor not served")
	}
	ec.note("v", 0, 3, "package/9")
	if get("u", 0) != nil {
		t.Fatal("unstamped entry served below the floor")
	}
	if rt.ctr.edgeFallbacks[fallbackUnstamped].Value() == 0 {
		t.Fatal("unstamped fallback not counted")
	}
	ec.purgeCity("v")
	if ec.len() != 0 {
		t.Fatalf("purgeCity left %d entries", ec.len())
	}
}

// TestChangeLogProofs pins the change log's bookkeeping: out-of-order
// acks, holes given up on, ring wrap, pinned and unstamped tokens, and
// epoch changes — each leaves the log claiming only what it recorded.
func TestChangeLogProofs(t *testing.T) {
	rt, _ := newRouter(t, Options{Topology: singleShard("http://127.0.0.1:9"), EdgeCache: true, EdgeCacheMax: 100})
	ec := rt.edge
	entry := func(entity string, seq, epoch int64) *edgeEntry {
		return &edgeEntry{key: entity, city: "v", entity: entity, seq: seq, epoch: epoch}
	}
	fresh := func(e *edgeEntry, floor int64) (bool, fallback, bool) {
		ec.mu.Lock()
		defer ec.mu.Unlock()
		served, fb, isFB := ec.logLocked("v", 0).fresh(e, floor)
		return served > 0, fb, isFB
	}
	mustFresh := func(e *edgeEntry, floor int64, want bool) {
		t.Helper()
		if ok, fb, isFB := fresh(e, floor); ok != want {
			t.Fatalf("fresh(%s@%d, floor %d) = %v (fallback %v %s), want %v", e.entity, e.seq, floor, ok, isFB, fallbackNames[fb], want)
		}
	}
	for s := int64(1); s <= 5; s++ {
		ec.note("v", 0, s, fmt.Sprintf("package/%d", s))
	}
	mustFresh(entry("package/1", 1, 0), 5, true)
	mustFresh(entry("package/1", 0, 0), 5, false) // before the log's first record
	mustFresh(entry("package/3", 2, 0), 5, false) // changed at 3

	// Out of order: 7 before 6. Until 6 arrives nothing proves past 5.
	ec.note("v", 0, 7, "package/7")
	if _, fb, isFB := fresh(entry("static", 5, 0), 0); !isFB || fb != fallbackGap {
		t.Fatalf("hole at 6 not reported as a gap: %v %s", isFB, fallbackNames[fb])
	}
	ec.note("v", 0, 6, "package/6")
	mustFresh(entry("static", 5, 0), 0, true)

	// A hole nobody fills (a write that bypassed the router) is given up
	// on once the newest commit runs reorderWindow past it.
	for s := int64(9); s <= 8+reorderWindow+1; s++ {
		ec.note("v", 0, s, "package/1")
	}
	mustFresh(entry("static", 9, 0), 0, true)
	if _, fb, _ := fresh(entry("static", 7, 0), 0); fb != fallbackGap {
		t.Fatalf("render before the abandoned hole: fallback %s, want gap", fallbackNames[fb])
	}

	// Wrap: 100 more commits push seq 9 out of the ring.
	for i := 0; i < 100; i++ {
		ec.note("v", 0, ec.logs["v"].max+1, "package/1")
	}
	if _, fb, _ := fresh(entry("static", 9, 0), 0); fb != fallbackWrap {
		t.Fatalf("render older than the ring: fallback %s, want wrap", fallbackNames[fb])
	}

	// A pinned token restarts the log; renders before it fall back.
	head := ec.logs["v"].max
	ec.note("v", 0, pinnedSeq, "package/2")
	if _, fb, _ := fresh(entry("static", head-1, 0), 0); fb != fallbackPinned {
		t.Fatalf("render before a pinned token: fallback %s, want pinned", fallbackNames[fb])
	}
	if ec.logs["v"].max != head {
		t.Fatalf("pinned token moved the commit floor to %d", ec.logs["v"].max)
	}
	mustFresh(entry("static", head, 0), 0, true)
	if _, fb, _ := fresh(entry("static", head, 0), pinnedSeq); fb != fallbackPinned {
		t.Fatalf("pinned session floor: fallback %s, want pinned", fallbackNames[fb])
	}
	ec.note("v", 0, head+1, "package/1")
	mustFresh(entry("static", head, 0), 0, true)

	// An unstamped commit may have changed anything.
	ec.note("v", 0, head+2, "")
	if _, fb, _ := fresh(entry("static", head+1, 0), 0); fb != fallbackUnstamped {
		t.Fatalf("render before an unstamped commit: fallback %s, want unstamped", fallbackNames[fb])
	}

	// A new term purges and restarts; old-term renders never serve.
	ec.put(entry("static", head+2, 0))
	if ec.len() != 1 {
		t.Fatal("entry not stored")
	}
	ec.note("v", 1, 3, "package/1")
	if ec.len() != 0 {
		t.Fatal("term change left the city's entries in place")
	}
	if l := ec.logs["v"]; l.epoch != 1 || l.max != 3 {
		t.Fatalf("log after the term change: epoch %d max %d, want 1 and 3", l.epoch, l.max)
	}
	ec.put(entry("static", head+2, 0))
	if ec.len() != 0 {
		t.Fatal("old-term render stored after the term change")
	}
	if n := rt.ctr.edgeFallbacks[fallbackEpoch].Value(); n != 1 {
		t.Fatalf("epoch fallbacks = %d, want 1 (one term change)", n)
	}
}

// --- integration: hits, invalidation, freshness over real backends ---

// pkgView is the slice of a package body the edge tests read: its id,
// commit token and the POI ids of each day.
type pkgView struct {
	ID   int   `json:"id"`
	Seq  int64 `json:"seq"`
	Days []struct {
		Items []struct {
			ID int `json:"id"`
		} `json:"items"`
	} `json:"days"`
}

// first is the POI id of the package's first item of its first day.
func (p pkgView) first() int { return p.Days[0].Items[0].ID }

// createPackage builds a k-day package for group through base (a router
// or shard URL ending in the city path).
func createPackage(t testing.TB, base string, group, k int, hdr map[string]string) pkgView {
	t.Helper()
	var p pkgView
	doJSON(t, "POST", base+"/packages", map[string]any{"group": group, "consensus": "pairwise", "k": k}, hdr, http.StatusCreated, &p)
	return p
}

// replaceFirst customizes a package: member 0 replaces the first item
// of its first day. It returns the op's commit seq.
func replaceFirst(t testing.TB, base string, p pkgView, hdr map[string]string) int64 {
	t.Helper()
	var res struct {
		Applied bool  `json:"applied"`
		Seq     int64 `json:"seq"`
	}
	doJSON(t, "POST", fmt.Sprintf("%s/packages/%d/ops", base, p.ID),
		map[string]any{"member": 0, "op": "replace", "ci": 0, "poi": p.first()}, hdr, http.StatusOK, &res)
	if !res.Applied {
		t.Fatalf("replace on package %d not applied", p.ID)
	}
	return res.Seq
}

// TestEdgeCacheHitInvalidateRefill walks the cache through its whole
// deterministic life cycle against a real primary+follower shard: miss →
// fill → hit, invalidation by a proxied op on the cached package, refill
// at the new sequence from the primary, hit again once the entry proves
// the floor — and an unrelated write that leaves the hit in place.
func TestEdgeCacheHitInvalidateRefill(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rt.Poll()

	sid := map[string]string{HeaderSession: "edgar"}
	base := rts.URL + "/cities/" + key
	var g createdGroup
	doJSON(t, "POST", base+"/groups", groupBody(city), sid, http.StatusCreated, &g)
	p := createPackage(t, base, g.ID, 2, sid)
	syncAll(t, fsrv)
	rt.Poll()

	url := fmt.Sprintf("%s/packages/%d", base, p.ID)

	// Miss + fill (served by the freshest follower), then a zero-hop hit.
	hdr := doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "" || hdr.Get(HeaderBackend) != fts.URL {
		t.Fatalf("fill not served by the follower: edge=%q backend=%q", hdr.Get(HeaderEdge), hdr.Get(HeaderBackend))
	}
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" {
		t.Fatalf("second read not an edge hit: %v", hdr)
	}
	if hdr.Get(HeaderAppliedSeq) != "2" || hdr.Get(HeaderBackend) != "" {
		t.Fatalf("hit headers wrong: seq=%q backend=%q", hdr.Get(HeaderAppliedSeq), hdr.Get(HeaderBackend))
	}
	if n := rt.ctr.edgeHits.Value(); n != 1 {
		t.Fatalf("edgeHits = %d, want 1", n)
	}

	// A proxied op on the cached package invalidates it immediately —
	// before any health poll or follower sync — so the next read refills
	// from the primary, the only node that can prove the new floor.
	replaceFirst(t, base, p, sid)
	var got pkgView
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, &got)
	if hdr.Get(HeaderEdge) == "hit" {
		t.Fatal("stale entry served after an op on its package")
	}
	if hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("post-write refill served by %q, want primary %q", hdr.Get(HeaderBackend), pts.URL)
	}
	if hdr.Get(HeaderAppliedSeq) != "3" || got.first() == p.first() {
		t.Fatalf("refill stamped %q with first item %d, want \"3\" and the op applied", hdr.Get(HeaderAppliedSeq), got.first())
	}
	if n := rt.ctr.edgeInvalidations.Value(); n == 0 {
		t.Fatal("edgeInvalidations never moved")
	}

	// The refilled entry proves the floor: hit again, at the new seq.
	hdr = doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" || hdr.Get(HeaderAppliedSeq) != "3" {
		t.Fatalf("refilled entry not hit: edge=%q seq=%q", hdr.Get(HeaderEdge), hdr.Get(HeaderAppliedSeq))
	}

	// The converse: an unrelated write (a new group at seq 4) raises the
	// session's floor past the entry, and the change log proves the
	// package unchanged — still a hit, for the writer and token-less
	// readers, stamped with the seq it was proven current at.
	doJSON(t, "POST", base+"/groups", groupBody(city), sid, http.StatusCreated, nil)
	for _, h := range []map[string]string{sid, nil} {
		hdr = doJSON(t, "GET", url, nil, h, http.StatusOK, nil)
		if hdr.Get(HeaderEdge) != "hit" || hdr.Get(HeaderAppliedSeq) != "4" {
			t.Fatalf("unrelated write killed the entry (session %v): edge=%q seq=%q", h != nil, hdr.Get(HeaderEdge), hdr.Get(HeaderAppliedSeq))
		}
	}
	if n := rt.ctr.edgeProven.Value(); n != 2 {
		t.Fatalf("edgeProven = %d, want 2", n)
	}
}

// TestEdgeCacheNeverServesPreWrite is the freshness-contract proof the
// cache hangs on: with a follower frozen mid-lag and the cache warm, an
// op's ack must make every pre-write entry of the changed package
// unservable — for the writer's own session AND for token-less readers
// — before the writer can act on the ack. The token-less reader then
// gets the follower's honest lagging state, never the cache's confident
// stale 200; entries of entities the op did not touch keep serving.
func TestEdgeCacheNeverServesPreWrite(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rt.Poll()

	// Warm the cache at seq 2 with everyone in sync: a package and its group.
	sid := map[string]string{HeaderSession: "wanda"}
	base := rts.URL + "/cities/" + key
	var g1 createdGroup
	doJSON(t, "POST", base+"/groups", groupBody(city), sid, http.StatusCreated, &g1)
	p := createPackage(t, base, g1.ID, 2, sid)
	syncAll(t, fsrv)
	rt.Poll()
	purl := fmt.Sprintf("%s/packages/%d", base, p.ID)
	g1url := fmt.Sprintf("%s/groups/%d", base, g1.ID)
	for _, u := range []string{purl, g1url} {
		doJSON(t, "GET", u, nil, nil, http.StatusOK, nil)
		if hdr := doJSON(t, "GET", u, nil, nil, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
			t.Fatalf("cache did not warm for %s", u)
		}
	}

	// The write: an op on the cached package commits at seq 3. The
	// follower does NOT sync and the router does NOT poll — the lag
	// window is wide open and only the commit token can save correctness.
	replaceFirst(t, base, p, sid)

	// A token-less reader of the package: the op's ack (no poll needed)
	// kills the seq-2 entry, and the refill from the lagging follower is
	// stamped seq 2 — rendered before the op — so it is served but NOT
	// re-cached. No pre-write bytes from the cache, ever.
	for i := 0; i < 2; i++ {
		hdr := doJSON(t, "GET", purl, nil, nil, http.StatusOK, nil)
		if hdr.Get(HeaderEdge) == "hit" {
			t.Fatal("token-less read served a pre-write cache entry after the ack")
		}
		if hdr.Get(HeaderBackend) != fts.URL || hdr.Get(HeaderAppliedSeq) != "2" {
			t.Fatalf("token-less read: backend=%q seq=%q, want the lagging follower at 2", hdr.Get(HeaderBackend), hdr.Get(HeaderAppliedSeq))
		}
	}
	// The group the op did not touch keeps serving from the cache.
	if hdr := doJSON(t, "GET", g1url, nil, nil, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
		t.Fatal("an op on the package killed its group's entry")
	}

	// The writer's read-back: session floor 3 beats the warm seq-2 entry;
	// the lagging follower can't prove the floor either, so the primary
	// serves — post-write state.
	var got pkgView
	hdr := doJSON(t, "GET", purl, nil, sid, http.StatusOK, &got)
	if hdr.Get(HeaderEdge) == "hit" {
		t.Fatal("writer's read-back served from a pre-write cache entry")
	}
	if hdr.Get(HeaderBackend) != pts.URL || got.first() == p.first() {
		t.Fatalf("read-back served by %q with first item %d, want primary and the op applied", hdr.Get(HeaderBackend), got.first())
	}
	// The read-back cached post-write bytes at seq 3 — so a token-less
	// reader now gets a hit *fresher* than the lagging follower could
	// serve. The cache only ever errs forward.
	hdr = doJSON(t, "GET", purl, nil, nil, http.StatusOK, nil)
	if hdr.Get(HeaderEdge) != "hit" || hdr.Get(HeaderAppliedSeq) != "3" {
		t.Fatalf("token-less read after the read-back: edge=%q seq=%q, want fresh hit", hdr.Get(HeaderEdge), hdr.Get(HeaderAppliedSeq))
	}

	// A new group at seq 4: nothing cached depends on it, so the package
	// keeps its hit, and an uncached key scoped to the new entity has
	// nothing to hit: the lagging follower answers its honest 404 — never
	// a stale 200 and never the cache inventing state.
	var g2 createdGroup
	doJSON(t, "POST", base+"/groups", groupBody(city), sid, http.StatusCreated, &g2)
	if hdr := doJSON(t, "GET", purl, nil, nil, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
		t.Fatal("an unrelated group creation killed the package entry")
	}
	hdr, err := tryDoJSON("GET", fmt.Sprintf("%s/groups/%d?fresh=1", base, g2.ID), nil, nil, http.StatusNotFound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Get(HeaderEdge) == "hit" || hdr.Get(HeaderBackend) != fts.URL {
		t.Fatalf("token-less 404: edge=%q backend=%q, want follower miss", hdr.Get(HeaderEdge), hdr.Get(HeaderBackend))
	}
}

// TestSessionCookieReadYourWrites proves the header-less client contract:
// a client that only replays its cookie jar gets read-your-writes through
// a lagging follower, and floors for different cities merge into one
// cookie.
func TestSessionCookieReadYourWrites(t *testing.T) {
	_, pts := newPrimary(t)
	_, fts := newFollower(t, pts.URL)
	cities := rtTestCities(t)
	key := cityKeyOf(cities[0])

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1})
	rt.Poll()

	// A cookie-less mutation: the ack sets gt-session.
	var g createdGroup
	hdr := doJSON(t, "POST", rts.URL+"/cities/"+key+"/groups", groupBody(cities[0]), nil, http.StatusCreated, &g)
	ck := sessionCookieOf(t, hdr)
	if ck != key+":1" {
		t.Fatalf("gt-session = %q, want %q", ck, key+":1")
	}

	// Replaying the cookie pins the read past the lagging follower.
	url := fmt.Sprintf("%s/cities/%s/groups/%d", rts.URL, key, g.ID)
	withCookie := map[string]string{"Cookie": SessionCookie + "=" + ck}
	hdr = doJSON(t, "GET", url, nil, withCookie, http.StatusOK, nil)
	if hdr.Get(HeaderBackend) != pts.URL {
		t.Fatalf("cookie-carrying read served by %q, want primary %q", hdr.Get(HeaderBackend), pts.URL)
	}
	if rt.ctr.readsPinned.Value() == 0 {
		t.Fatal("cookie floor did not pin the read")
	}
	// Without the cookie the same read is token-less: the lagging
	// follower's honest 404.
	if _, err := tryDoJSON("GET", url, nil, nil, http.StatusNotFound, nil); err != nil {
		t.Fatal(err)
	}

	// A write in a second city merges into the same cookie.
	key2 := cityKeyOf(cities[1])
	hdr = doJSON(t, "POST", rts.URL+"/cities/"+key2+"/groups", groupBody(cities[1]), withCookie, http.StatusCreated, nil)
	merged := sessionCookieOf(t, hdr)
	if cookieFloor(merged, key) != 1 || cookieFloor(merged, key2) != 1 {
		t.Fatalf("merged cookie %q lost a city floor", merged)
	}
}

// sessionCookieOf extracts the gt-session value from response headers.
func sessionCookieOf(t *testing.T, hdr http.Header) string {
	t.Helper()
	for _, ck := range (&http.Response{Header: hdr}).Cookies() {
		if ck.Name == SessionCookie {
			return ck.Value
		}
	}
	t.Fatalf("no %s cookie in %v", SessionCookie, hdr)
	return ""
}

// --- coalescing and the route guard, against an instrumented backend ---

// TestEdgeCacheCoalescesConcurrentMisses: N concurrent misses on one key
// cost exactly one upstream request — the singleflight leader's — and
// every waiter still gets the full body.
func TestEdgeCacheCoalescesConcurrentMisses(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-gate
		w.Header().Set(server.HeaderAppliedSeq, "1")
		_, _ = w.Write([]byte(`{"hot":true}`))
	}))
	t.Cleanup(backend.Close)
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})

	rt, rts := newRouter(t, Options{Topology: singleShard(backend.URL), EdgeCache: true})

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(rts.URL + "/cities/ville/groups/1")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != `{"hot":true}` {
				errs <- fmt.Errorf("got %d %q", resp.StatusCode, body)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the herd pile up behind the gate
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("herd of %d cost %d upstream requests, want 1", n, calls)
	}
	// Every non-leader either rode the fill (coalesced) or arrived after
	// it finished (hit); nobody paid a second hop.
	if got := rt.ctr.edgeCoalesced.Value() + rt.ctr.edgeHits.Value(); got != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, n-1)
	}
}

// TestEdgeCacheRouteGuard: the replication stream, live gauges, streamed
// responses, and oversized query strings bypass the cache entirely —
// every request reaches the backend even with the cache on and the
// responses stamped cacheable.
func TestEdgeCacheRouteGuard(t *testing.T) {
	var mu sync.Mutex
	calls := map[string]int{}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.URL.Path]++
		mu.Unlock()
		w.Header().Set(server.HeaderAppliedSeq, "1")
		_, _ = w.Write([]byte("ok"))
	}))
	t.Cleanup(backend.Close)

	_, rts := newRouter(t, Options{Topology: singleShard(backend.URL), EdgeCache: true})

	long := make([]byte, maxEdgeKeyQuery+1)
	for i := range long {
		long[i] = 'z'
	}
	uncacheable := []string{
		"/cities/ville/wal",
		"/cities/ville/metrics",
		"/cities/ville/healthz",
		"/cities/ville/groups/1?stream=1",
		"/cities/ville/groups/1?wait=5s",
		"/cities/ville/groups/1?q=" + string(long),
	}
	for _, path := range uncacheable {
		for i := 0; i < 2; i++ {
			resp, err := http.Get(rts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			drainBody(resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d", path, resp.StatusCode)
			}
			if resp.Header.Get(HeaderEdge) != "" {
				t.Fatalf("GET %s served from the edge cache", path)
			}
		}
	}
	// Control: a cacheable route collapses to one upstream request.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(rts.URL + "/cities/ville/groups/1")
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["/cities/ville/wal"] != 2 || calls["/cities/ville/metrics"] != 2 || calls["/cities/ville/healthz"] != 2 {
		t.Fatalf("guarded routes were cached: %v", calls)
	}
	// The three query-guarded variants share the path with the control:
	// 2+2+2 guarded requests plus exactly 1 control fill.
	if calls["/cities/ville/groups/1"] != 7 {
		t.Fatalf("query-guarded requests were cached (or control was not): %v", calls)
	}
}

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
