package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"grouptravel/internal/server"
)

// TestEdgeCacheEpochChangeNeverServesLostHistory: promotion of a lagging
// follower hands out seqs (and entity ids) the deposed primary already
// used. An entry rendered from the lost history at seq S must not serve
// after the promotion — not even to the writer whose new ack carries the
// same S, which would break read-your-writes.
func TestEdgeCacheEpochChangeNeverServesLostHistory(t *testing.T) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	key := cityKeyOf(city)

	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true})
	rt.Poll()

	sid := map[string]string{HeaderSession: "lois"}
	base := rts.URL + "/cities/" + key
	var g createdGroup
	doJSON(t, "POST", base+"/groups", groupBody(city), sid, http.StatusCreated, &g)
	syncAll(t, fsrv)
	rt.Poll()

	// The write the promotion will lose: a 2-day package at seq 2 that
	// only the primary holds, read back (and cached) by its writer.
	lost := createPackage(t, base, g.ID, 2, sid)
	url := fmt.Sprintf("%s/packages/%d", base, lost.ID)
	doJSON(t, "GET", url, nil, sid, http.StatusOK, nil)
	if hdr := doJSON(t, "GET", url, nil, sid, http.StatusOK, nil); hdr.Get(HeaderEdge) != "hit" {
		t.Fatal("lost-history package not cached")
	}

	// The primary dies; the frozen follower (applied seq 1) is promoted.
	if err := fsrv.Promote(); err != nil {
		t.Fatal(err)
	}
	pts.Close()
	rt.Poll()

	// The new history reuses seq 2 and the package id for a 3-day package.
	neu := createPackage(t, base, g.ID, 3, sid)
	if neu.ID != lost.ID || neu.Seq != lost.Seq {
		t.Fatalf("precondition: new package %d@%d does not reuse %d@%d", neu.ID, neu.Seq, lost.ID, lost.Seq)
	}
	var got pkgView
	hdr := doJSON(t, "GET", url, nil, sid, http.StatusOK, &got)
	if hdr.Get(HeaderEdge) == "hit" || len(got.Days) != 3 {
		t.Fatalf("writer read the lost history after the promotion: edge=%q days=%d, want a 3-day miss",
			hdr.Get(HeaderEdge), len(got.Days))
	}
	if rt.ctr.edgeFallbacks[fallbackEpoch].Value() == 0 {
		t.Fatal("term change not counted as an epoch fallback")
	}
}

// TestEdgeCachePinnedTokenKeepsCacheAlive: a failed WAL append acks with
// the pin-to-primary token. It must purge the changed entity and keep
// the writer's session pinned, but it must not switch the city's edge
// cache off: other entries keep serving, and the purged one refills.
func TestEdgeCachePinnedTokenKeepsCacheAlive(t *testing.T) {
	var renders atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set(server.HeaderCity, "ville")
			w.Header().Set(server.HeaderSeq, strconv.FormatInt(math.MaxInt64, 10))
			w.Header().Set(server.HeaderEntity, "package/1")
			_, _ = w.Write([]byte(`{"applied":true}`))
			return
		}
		switch r.URL.Path {
		case "/healthz":
			_, _ = w.Write([]byte(`{"status":"ok","role":"primary"}`))
			return
		case "/cities":
			_, _ = w.Write([]byte(`[]`))
			return
		}
		id := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		w.Header().Set(server.HeaderAppliedSeq, "5")
		w.Header().Set(server.HeaderEntity, "package/"+id)
		fmt.Fprintf(w, `{"id":%s,"render":%d}`, id, renders.Add(1))
	}))
	t.Cleanup(backend.Close)
	rt, rts := newRouter(t, Options{Topology: singleShard(backend.URL), EdgeCache: true})
	rt.Poll()

	get := func(path string, hdr map[string]string) http.Header {
		t.Helper()
		return doJSON(t, "GET", rts.URL+path, nil, hdr, http.StatusOK, nil)
	}
	for _, p := range []string{"/cities/ville/packages/1", "/cities/ville/packages/2"} {
		get(p, nil)
		if get(p, nil).Get(HeaderEdge) != "hit" {
			t.Fatalf("%s did not warm", p)
		}
	}

	hdr := doJSON(t, "POST", rts.URL+"/cities/ville/packages/1/ops", map[string]any{"op": "add"}, nil, http.StatusOK, nil)
	pinned := map[string]string{"Cookie": SessionCookie + "=" + sessionCookieOf(t, hdr)}

	if get("/cities/ville/packages/2", nil).Get(HeaderEdge) != "hit" {
		t.Fatal("a pinned token switched the city's edge cache off")
	}
	if get("/cities/ville/packages/1", nil).Get(HeaderEdge) == "hit" {
		t.Fatal("the pinned write's entity kept serving from the cache")
	}
	if get("/cities/ville/packages/1", nil).Get(HeaderEdge) != "hit" {
		t.Fatal("the purged entity did not refill")
	}
	// The writer stays pinned to the primary: never an edge hit.
	if h := get("/cities/ville/packages/2", pinned); h.Get(HeaderEdge) == "hit" || h.Get(HeaderBackend) != backend.URL {
		t.Fatalf("pinned session served edge=%q backend=%q, want the primary", h.Get(HeaderEdge), h.Get(HeaderBackend))
	}

	var health healthReport
	doJSON(t, "GET", rts.URL+"/healthz", nil, nil, http.StatusOK, &health)
	if health.Counters.EdgeFallbacks["pinned"] == 0 {
		t.Fatalf("/healthz edgeFallbacks = %v, want a pinned fallback", health.Counters.EdgeFallbacks)
	}
	if !strings.Contains(fetchText(t, rts.URL+"/metrics"), `gt_router_edgecache_fallbacks_total{reason="pinned"} `) {
		t.Fatal("/metrics lacks the pinned fallback series")
	}
	if rt.ctr.edgeFallbacks[fallbackPinned].Value() == 0 {
		t.Fatal("pinned fallback counter never moved")
	}
}

// --- randomized freshness history ---

// version is one state of a cached path: the primary's render right
// after the commit at seq made it current.
type version struct {
	seq  int64
	body []byte
}

// freshnessHistory drives one seeded interleaving against a primary, a
// manually synced follower and an edge-cached router, and checks every
// read against a model of each path's versions.
type freshnessHistory struct {
	t    *testing.T
	rng  *rand.Rand
	city string

	rt          *Router
	rts         *httptest.Server
	pts         *httptest.Server // the deposed primary, closed at promotion
	fsrv        *server.Server
	followerURL string
	primary     string // current writable node's URL
	follower    bool   // a follower is still replicating

	head     int64 // newest seq on the current primary
	fApplied int64 // follower's applied seq (it syncs fully or not at all)
	acked    int64 // newest seq the router acknowledged (current history)
	polled   int64 // head at the router's last health poll (current history)
	sessions map[string]int64
	versions map[string][]version // path below the city -> versions, oldest first
	groups   []int
	pkgs     []pkgView

	hits int
}

// render fetches the current primary's render of path (below the city).
func (h *freshnessHistory) render(path string) []byte {
	h.t.Helper()
	resp, err := http.Get(h.primary + "/cities/" + h.city + path)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("primary render of %s: %d %s", path, resp.StatusCode, body)
	}
	return body
}

// committed records a write at seq that changed path.
func (h *freshnessHistory) committed(seq int64, path string, viaRouter bool, session string) {
	if seq != h.head+1 {
		h.t.Fatalf("seq %d after head %d: the history is not sequential", seq, h.head)
	}
	h.head = seq
	if viaRouter {
		h.acked = seq
		if session != "" {
			h.sessions[session] = seq
		}
	}
	h.versions[path] = append(h.versions[path], version{seq: seq, body: h.render(path)})
}

// base is where a write goes: through the router, or straight to the
// primary (a write the router never sees).
func (h *freshnessHistory) base(viaRouter bool) string {
	if viaRouter {
		return h.rts.URL + "/cities/" + h.city
	}
	return h.primary + "/cities/" + h.city
}

func (h *freshnessHistory) pickSession() (string, map[string]string) {
	switch h.rng.Intn(3) {
	case 0:
		return "", nil
	case 1:
		sid := fmt.Sprintf("hdr-%d", h.rng.Intn(2))
		return sid, map[string]string{HeaderSession: sid}
	}
	sid := fmt.Sprintf("ck-%d", h.rng.Intn(2))
	if f := h.sessions[sid]; f > 0 {
		return sid, map[string]string{"Cookie": SessionCookie + "=" + h.city + ":" + strconv.FormatInt(f, 10)}
	}
	return sid, nil
}

func (h *freshnessHistory) createGroup(viaRouter bool) {
	sid, hdr := h.pickSession()
	var g createdGroup
	doJSON(h.t, "POST", h.base(viaRouter)+"/groups", groupBody(rtTestCities(h.t)[0]), hdr, http.StatusCreated, &g)
	h.groups = append(h.groups, g.ID)
	h.committed(g.Seq, fmt.Sprintf("/groups/%d", g.ID), viaRouter, sid)
}

func (h *freshnessHistory) createPackage(viaRouter bool) {
	sid, hdr := h.pickSession()
	p := createPackage(h.t, h.base(viaRouter), h.groups[h.rng.Intn(len(h.groups))], 2, hdr)
	h.pkgs = append(h.pkgs, p)
	h.committed(p.Seq, fmt.Sprintf("/packages/%d", p.ID), viaRouter, sid)
}

func (h *freshnessHistory) customize(viaRouter bool) {
	sid, hdr := h.pickSession()
	i := h.rng.Intn(len(h.pkgs))
	seq := replaceFirst(h.t, h.base(viaRouter), h.pkgs[i], hdr)
	path := fmt.Sprintf("/packages/%d", h.pkgs[i].ID)
	h.committed(seq, path, viaRouter, sid)
	var now pkgView
	if err := json.Unmarshal(h.versions[path][len(h.versions[path])-1].body, &now); err != nil {
		h.t.Fatal(err)
	}
	h.pkgs[i] = now
}

// promote deposes the primary: the follower, frozen wherever its last
// sync left it, takes over, and every write past its applied seq is
// lost. The router learns the new term from its next health poll, as it
// does when its own supervisor promotes. The model drops the lost
// versions; floors fall back to the new history's head (sessions that
// wrote lost seqs keep their floors — a current version satisfies any
// floor).
func (h *freshnessHistory) promote() {
	if err := h.fsrv.Promote(); err != nil {
		h.t.Fatal(err)
	}
	h.pts.Close()
	h.rt.Poll()
	h.primary, h.follower = h.followerURL, false
	h.head = h.fApplied
	h.acked = min(h.acked, h.head)
	h.polled = h.head
	for path, vs := range h.versions {
		n := 0
		for n < len(vs) && vs[n].seq <= h.head {
			n++
		}
		h.versions[path] = vs[:n]
	}
	keep := h.pkgs[:0]
	for _, p := range h.pkgs {
		if vs := h.versions[fmt.Sprintf("/packages/%d", p.ID)]; len(vs) > 0 {
			var now pkgView
			if err := json.Unmarshal(vs[len(vs)-1].body, &now); err != nil {
				h.t.Fatal(err)
			}
			keep = append(keep, now)
		}
	}
	h.pkgs = keep
	groups := h.groups[:0]
	for _, id := range h.groups {
		if len(h.versions[fmt.Sprintf("/groups/%d", id)]) > 0 {
			groups = append(groups, id)
		}
	}
	h.groups = groups
}

// read issues one GET through the router and checks it: an edge hit must
// equal a version of the path current at some seq at or past the
// reader's floor; a session read must do so whether or not it hit.
func (h *freshnessHistory) read() {
	paths := []string{"", "/pois?k=5"}
	for _, id := range h.groups {
		paths = append(paths, fmt.Sprintf("/groups/%d", id))
	}
	for _, p := range h.pkgs {
		paths = append(paths, fmt.Sprintf("/packages/%d", p.ID))
	}
	path := paths[h.rng.Intn(len(paths))]
	sid, hdr := h.pickSession()
	if hdr == nil {
		sid = ""
	}
	req, err := http.NewRequest(http.MethodGet, h.rts.URL+"/cities/"+h.city+path, nil)
	if err != nil {
		h.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	hit := resp.Header.Get(HeaderEdge) == "hit"
	if resp.StatusCode != http.StatusOK {
		if hit {
			h.t.Fatalf("edge hit with status %d", resp.StatusCode)
		}
		return // a lagging follower's honest 404 for a token-less read
	}
	// A session whose floor names a write the promotion lost is served
	// by the new primary below that floor: the documented loss window.
	floor := h.sessions[sid]
	if stamp, _ := strconv.ParseInt(resp.Header.Get(HeaderAppliedSeq), 10, 64); stamp < floor && floor <= h.head {
		h.t.Fatalf("GET %s (session %q): applied seq %d below the session floor %d", path, sid, stamp, floor)
	}
	if hit {
		floor = max(floor, h.acked, h.polled)
		h.hits++
	} else if sid == "" {
		return // token-less replica reads may lag: not a cache answer
	}
	vs := h.versions[path]
	for i, v := range vs {
		if bytes.Equal(v.body, body) && (i == len(vs)-1 || vs[i+1].seq > floor) {
			return
		}
	}
	h.t.Fatalf("GET %s (session %q, floor %d, hit %v, stamped %s) served a body that is no version current at or past the floor:\n%s\nversions: %d, head %d",
		path, sid, floor, hit, resp.Header.Get(HeaderAppliedSeq), body, len(vs), h.head)
}

func runFreshnessHistory(t *testing.T, seed int64, steps int) (hits, proven int) {
	_, pts := newPrimary(t)
	fsrv, fts := newFollower(t, pts.URL)
	city := rtTestCities(t)[0]
	rt, rts := newRouter(t, Options{Topology: singleShard(fts.URL, pts.URL), ShedLag: -1, EdgeCache: true, EdgeCacheMax: 64})
	rt.Poll()
	h := &freshnessHistory{
		t: t, rng: rand.New(rand.NewSource(seed)), city: cityKeyOf(city),
		rt: rt, rts: rts, pts: pts, fsrv: fsrv, primary: pts.URL, follower: true, followerURL: fts.URL,
		sessions: map[string]int64{}, versions: map[string][]version{},
	}
	h.versions[""] = []version{{body: h.render("")}}
	h.versions["/pois?k=5"] = []version{{body: h.render("/pois?k=5")}}
	h.createGroup(true)
	h.createPackage(true)

	promoteAt := steps/2 + h.rng.Intn(steps/4)
	for step := 0; step < steps; step++ {
		if step == promoteAt {
			h.promote()
			continue
		}
		// One write in eight bypasses the router.
		switch r := h.rng.Intn(100); {
		case r < 6:
			h.createGroup(h.rng.Intn(8) != 0)
		case r < 12 && len(h.pkgs) < 8:
			if len(h.groups) > 0 {
				h.createPackage(h.rng.Intn(8) != 0)
			}
		case r < 34:
			if len(h.pkgs) > 0 {
				h.customize(h.rng.Intn(8) != 0)
			}
		case r < 42:
			if h.follower {
				syncAll(t, h.fsrv)
				h.fApplied = h.head
			}
		case r < 50:
			rt.Poll()
			h.polled = h.head
		default:
			h.read()
		}
	}
	return h.hits, int(rt.ctr.edgeProven.Value())
}

// TestEdgeCacheFreshnessHistory runs seeded interleavings of reads and
// writes through the router, writes straight to the primary (holes in
// the router's change log), follower freezes and syncs, health polls,
// session and token-less reads, and one promotion of the frozen
// follower. Oracle: every edge hit's body equals the primary's render of
// that path at some seq at or past the reader's floor, and every
// session read does, stamped at or past the session's floor. The runs
// must also hit entries the change log proved current (rendered below
// the reader's floor), or they prove nothing about the log.
func TestEdgeCacheFreshnessHistory(t *testing.T) {
	steps := 160
	if testing.Short() {
		steps = 60
	}
	var hits, proven int
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h, p := runFreshnessHistory(t, seed, steps)
			hits += h
			proven += p
		})
	}
	if hits == 0 || proven == 0 {
		t.Fatalf("histories hit %d entries, %d of them proven by the change log; want both > 0", hits, proven)
	}
	t.Logf("%d edge hits, %d proven by the change log", hits, proven)
}
