// grouptravel-loadgen is the macro load generator for the scale-out
// topology: an open-loop arrival-process driver (exponential
// inter-arrivals at a fixed offered rate — arrivals never slow down
// because the system is slow, which is what exposes queueing collapse)
// firing persona scripts at a router fronting a real primary+follower
// shard.
//
// By default it boots the whole topology in-process on loopback — city
// datasets, a persistent primary, streaming followers, and the router
// with its edge cache — so one command measures the full stack with no
// setup. -target points it at an externally running router instead.
//
// Cities are picked from a zipf distribution (hot-city skew is what an
// edge cache lives on), and each arrival runs one persona drawn from the
// interactive loop the paper describes: builders create a group and
// build a package then read it back, collaborators customize an existing
// package, refiners run preference refinement, and readers browse
// token-lessly. Every request is timed and classified with the fleet's
// endpoint-class taxonomy; the run emits per-class p50/p99/p999 and
// throughput, plus the router's edge-cache ledger, and can merge the
// result into a BENCH_*.json trajectory file under the "macro" key
// (cmd/benchjson ignores non-Benchmark keys, so compares stay safe).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/cookiejar"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
	"grouptravel/internal/router"
	"grouptravel/internal/server"
	"grouptravel/internal/telemetry"
)

func main() {
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	rate := flag.Float64("rate", 120, "offered arrival rate (personas/sec, open loop)")
	nCities := flag.Int("cities", 4, "generated cities (self-contained topology)")
	followers := flag.Int("followers", 1, "follower replicas behind the primary (self-contained topology)")
	zipfS := flag.Float64("zipf", 1.2, "zipf skew for city popularity (> 1)")
	seed := flag.Int64("seed", 42, "deterministic workload seed")
	target := flag.String("target", "", "external router base URL (empty: boot an in-process topology)")
	edgeCache := flag.Bool("edge-cache", true, "enable the router's edge cache (self-contained topology)")
	maxInflight := flag.Int("max-inflight", 512, "in-flight persona bound; arrivals past it are dropped and reported")
	out := flag.String("out", "", "merge results under the \"macro\" key of this BENCH_*.json (preserves Benchmark* keys)")
	maxErrRate := flag.Float64("max-error-rate", 0.01, "exit non-zero when (transport errors + 5xx) / requests exceeds this")
	flag.Parse()

	routerURL := *target
	if routerURL == "" {
		url, cleanup, err := bootTopology(*nCities, *followers, *edgeCache, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: boot:", err)
			os.Exit(1)
		}
		defer cleanup()
		routerURL = url
	}

	cities, err := discoverCities(routerURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: discover cities:", err)
		os.Exit(1)
	}

	res := run(routerURL, cities, *duration, *rate, *zipfS, *seed, *maxInflight)
	res.Target = routerURL
	res.EdgeCache = *edgeCache
	res.Cities = len(cities)
	res.Followers = *followers
	res.scrapeRouter(routerURL)

	res.print(os.Stdout)
	if *out != "" {
		if err := res.mergeInto(*out); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: write:", err)
			os.Exit(1)
		}
		fmt.Printf("macro results merged into %s\n", *out)
	}
	if res.Requests == 0 || res.errorRate() > *maxErrRate {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d/%d requests errored (rate %.4f > %.4f)\n",
			res.Errors, res.Requests, res.errorRate(), *maxErrRate)
		os.Exit(1)
	}
	// Collaborators send only ops that are valid for the package they
	// just read, so any rejected op is a regression (in the persona or in
	// the read-your-writes path it relies on), not load.
	if cs := res.Classes[telemetry.ClassCollab]; cs != nil && cs.Rejects > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d of %d collab requests rejected (4xx)\n", cs.Rejects, cs.Count)
		os.Exit(1)
	}
}

// --- self-contained topology ---

// bootTopology stands up cities, one persistent primary, streaming
// followers, and the router, all on loopback listeners, and returns the
// router's base URL.
func bootTopology(nCities, nFollowers int, edgeCache bool, seed int64) (string, func(), error) {
	var citySet []*dataset.City
	for i := 0; i < nCities; i++ {
		c, err := dataset.Generate(dataset.TestSpec(fmt.Sprintf("Loadcity%02d", i), seed+int64(i)))
		if err != nil {
			return "", nil, err
		}
		citySet = append(citySet, c)
	}
	keys := make([]string, len(citySet))
	for i, c := range citySet {
		keys[i] = strings.ToLower(c.Name)
	}

	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := &http.Server{Handler: h}
		go func() { _ = srv.Serve(ln) }()
		cleanups = append(cleanups, func() { _ = srv.Close() })
		return "http://" + ln.Addr().String(), nil
	}
	node := func(opts server.Options) (string, error) {
		// The advertise URL must exist before the server does: listen
		// first, construct second, serve third.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		url := "http://" + ln.Addr().String()
		dir, err := os.MkdirTemp("", "gt-loadgen-*")
		if err != nil {
			ln.Close()
			return "", err
		}
		cleanups = append(cleanups, func() { _ = os.RemoveAll(dir) })
		opts.Cities = citySet
		opts.SnapshotDir = dir
		opts.Advertise = url
		opts.PreloadCities = keys
		s, err := server.NewMultiCity(opts)
		if err != nil {
			ln.Close()
			return "", err
		}
		cleanups = append(cleanups, func() { s.Close() })
		srv := &http.Server{Handler: s.Handler()}
		go func() { _ = srv.Serve(ln) }()
		cleanups = append(cleanups, func() { _ = srv.Close() })
		return url, nil
	}

	primary, err := node(server.Options{})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	nodes := []string{primary}
	for i := 0; i < nFollowers; i++ {
		f, err := node(server.Options{Follow: primary})
		if err != nil {
			cleanup()
			return "", nil, err
		}
		nodes = append(nodes, f)
	}

	rt, err := router.New(router.Options{
		Topology:     &router.Topology{Shards: []router.Shard{{Name: "s1", Nodes: nodes}}},
		PollInterval: 250 * time.Millisecond,
		EdgeCache:    edgeCache,
	})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	cleanups = append(cleanups, rt.Close)
	rt.Poll() // warm role discovery before the first arrival
	url, err := serve(rt.Handler())
	if err != nil {
		cleanup()
		return "", nil, err
	}
	return url, cleanup, nil
}

// --- workload discovery ---

// cityInfo is what a persona needs to write valid requests: the city key,
// the rating-vector dimensions per category, and the groups and packages
// built so far.
type cityInfo struct {
	key  string
	dims map[string]int

	mu     sync.Mutex
	groups []int
	pkgs   []*pkgInfo
}

// pkgInfo is what personas know about a package: its group's size (op
// members are indexed inside it), the city commit seq of its latest
// write, and whether a collaborator holds it for a read-modify-write.
// id and members never change; seq and busy are guarded by cityInfo.mu.
type pkgInfo struct {
	id      int
	members int
	seq     int64
	busy    bool
}

func (ci *cityInfo) addGroup(id int) {
	ci.mu.Lock()
	ci.groups = append(ci.groups, id)
	ci.mu.Unlock()
}

func (ci *cityInfo) addPkg(id, members int, seq int64) {
	ci.mu.Lock()
	ci.pkgs = append(ci.pkgs, &pkgInfo{id: id, members: members, seq: seq})
	ci.mu.Unlock()
}

// pick draws a group id and a package id, -1 when there is none yet.
func (ci *cityInfo) pick(r *rand.Rand) (group, pkg int) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	group, pkg = -1, -1
	if len(ci.groups) > 0 {
		group = ci.groups[r.Intn(len(ci.groups))]
	}
	if len(ci.pkgs) > 0 {
		pkg = ci.pkgs[r.Intn(len(ci.pkgs))].id
	}
	return group, pkg
}

// checkout draws a package for a collaborator and holds it until release,
// so no two collaborators edit one package at once, and returns it with
// its latest commit seq. It returns nil when there is no package or the
// drawn one is held.
func (ci *cityInfo) checkout(r *rand.Rand) (p *pkgInfo, seq int64) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if len(ci.pkgs) == 0 {
		return nil, 0
	}
	p = ci.pkgs[r.Intn(len(ci.pkgs))]
	if p.busy {
		return nil, 0
	}
	p.busy = true
	return p, p.seq
}

// release returns a checked-out package, recording the seq of the write
// made while it was held (0 if none).
func (ci *cityInfo) release(p *pkgInfo, seq int64) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	p.busy = false
	p.seq = max(p.seq, seq)
}

// discoverCities learns the serving cities and their schemas through the
// router — the same path an external client would.
func discoverCities(routerURL string) ([]*cityInfo, error) {
	var rows []struct {
		Key string `json:"key"`
	}
	if err := getJSON(routerURL+"/cities", &rows); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("router reports no cities")
	}
	var cities []*cityInfo
	for _, row := range rows {
		var info struct {
			Schema map[string][]string `json:"schema"`
		}
		if err := getJSON(routerURL+"/cities/"+row.Key, &info); err != nil {
			return nil, fmt.Errorf("city %s: %w", row.Key, err)
		}
		ci := &cityInfo{key: row.Key, dims: map[string]int{}}
		for cat, labels := range info.Schema {
			ci.dims[cat] = len(labels)
		}
		cities = append(cities, ci)
	}
	sort.Slice(cities, func(i, j int) bool { return cities[i].key < cities[j].key })
	return cities, nil
}

func getJSON(url string, out any) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// httpClient reuses connections at persona concurrency — the default
// two idle conns per host would thrash sockets under load.
var httpClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	},
}

// --- the open-loop driver ---

type classStats struct {
	Count     int64   `json:"count"`
	Errors    int64   `json:"errors"`
	Rejects   int64   `json:"rejects4xx"`
	P50Ms     float64 `json:"p50Ms"`
	P99Ms     float64 `json:"p99Ms"`
	P999Ms    float64 `json:"p999Ms"`
	latencies []time.Duration
}

type results struct {
	Schema        string                 `json:"schema"`
	Target        string                 `json:"target"`
	DurationSec   float64                `json:"durationSec"`
	OfferedRate   float64                `json:"offeredRate"`
	Zipf          float64                `json:"zipf"`
	Seed          int64                  `json:"seed"`
	Cities        int                    `json:"cities"`
	Followers     int                    `json:"followers"`
	EdgeCache     bool                   `json:"edgeCache"`
	Requests      int64                  `json:"requests"`
	Errors        int64                  `json:"errors"`
	Rejects       int64                  `json:"rejects4xx"`
	Dropped       int64                  `json:"droppedArrivals"`
	ThroughputRPS float64                `json:"throughputRPS"`
	Classes       map[string]*classStats `json:"classes"`
	Router        map[string]int64       `json:"router,omitempty"`

	mu sync.Mutex
}

func (res *results) record(class string, d time.Duration, status int, err error) {
	res.mu.Lock()
	defer res.mu.Unlock()
	cs := res.Classes[class]
	if cs == nil {
		cs = &classStats{}
		res.Classes[class] = cs
	}
	res.Requests++
	switch {
	case err != nil || status >= 500:
		// Transport failures and 5xx are service failures; their
		// latencies (timeouts included) would poison the percentiles.
		res.Errors++
		cs.Errors++
	case status >= 400:
		// 4xx is the service working: an honest 404 from a lagging
		// follower, a rejected op. Counted, and timed like any answer.
		res.Rejects++
		cs.Rejects++
		cs.Count++
		cs.latencies = append(cs.latencies, d)
	default:
		cs.Count++
		cs.latencies = append(cs.latencies, d)
	}
}

func (res *results) errorRate() float64 {
	if res.Requests == 0 {
		return 1
	}
	return float64(res.Errors) / float64(res.Requests)
}

func pctile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// run drives the arrival process for the window and reduces the samples.
func run(routerURL string, cities []*cityInfo, window time.Duration, rate, zipfS float64, seed int64, maxInflight int) *results {
	res := &results{
		Schema:      "grouptravel-loadgen/v1",
		DurationSec: window.Seconds(),
		OfferedRate: rate,
		Zipf:        zipfS,
		Seed:        seed,
		Classes:     map[string]*classStats{},
	}
	src := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(src, zipfS, 1, uint64(len(cities)-1))

	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	next := start
	for n := int64(0); ; n++ {
		// Exponential inter-arrivals: a Poisson arrival process at the
		// offered rate, paced from the schedule — not from completions.
		next = next.Add(time.Duration(src.ExpFloat64() / rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		select {
		case sem <- struct{}{}:
		default:
			res.mu.Lock()
			res.Dropped++ // open loop: never queue unboundedly, report instead
			res.mu.Unlock()
			continue
		}
		wg.Add(1)
		city := cities[zipf.Uint64()]
		go func(n int64, city *cityInfo) {
			defer wg.Done()
			defer func() { <-sem }()
			r := rand.New(rand.NewSource(seed ^ (n+1)*0x5851F42D4C957F2D))
			persona(routerURL, city, r, res)
		}(n, city)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total int64
	for _, cs := range res.Classes {
		sort.Slice(cs.latencies, func(i, j int) bool { return cs.latencies[i] < cs.latencies[j] })
		cs.P50Ms = pctile(cs.latencies, 0.50)
		cs.P99Ms = pctile(cs.latencies, 0.99)
		cs.P999Ms = pctile(cs.latencies, 0.999)
		cs.latencies = nil
		total += cs.Count
	}
	res.ThroughputRPS = float64(total) / elapsed.Seconds()
	return res
}

// --- personas ---

// persona runs one scripted visitor: mostly readers (the hot-city
// browsing the edge cache lives on), with builders, collaborators, and
// refiners supplying the mutation stream and the read-your-writes
// read-backs. Writers carry a cookie jar of their own: the router echoes
// every commit token as a gt-session cookie and the jar presents it on
// the read-back, the stateless read-your-writes path a browser takes.
func persona(base string, city *cityInfo, r *rand.Rand, res *results) {
	p := r.Float64()
	if p < 0.70 {
		reader(base, city, r, res)
		return
	}
	jar, err := cookiejar.New(nil)
	if err != nil {
		panic(err)
	}
	c := &http.Client{Timeout: httpClient.Timeout, Transport: httpClient.Transport, Jar: jar}
	switch {
	case p < 0.82:
		builder(base, city, r, res, c)
	case p < 0.94:
		collaborator(base, city, r, res, c)
	default:
		refiner(base, city, r, res, c)
	}
}

// do issues one timed, classified request with client c (nil: the shared
// cookie-less client). A positive minSeq is sent as an explicit
// X-GT-Min-Seq read floor. It returns the status, the body and the
// commit seq the response carries in X-GT-Seq (0 if none).
func do(res *results, c *http.Client, method, url string, body any, minSeq int64) (status int, reply []byte, seq int64) {
	var rd *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rd = strings.NewReader(string(b))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		panic(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if minSeq > 0 {
		req.Header.Set(router.HeaderMinSeq, strconv.FormatInt(minSeq, 10))
	}
	if c == nil {
		c = httpClient
	}
	class := telemetry.Classify(method, req.URL.Path)
	t0 := time.Now()
	resp, err := c.Do(req)
	d := time.Since(t0)
	if err != nil {
		res.record(class, d, 0, err)
		return 0, nil, 0
	}
	defer resp.Body.Close()
	var buf strings.Builder
	_, rerr := io.Copy(&buf, resp.Body)
	d = time.Since(t0) // the full response, not just the status line
	res.record(class, d, resp.StatusCode, rerr)
	seq, _ = strconv.ParseInt(resp.Header.Get(router.HeaderSeq), 10, 64)
	return resp.StatusCode, []byte(buf.String()), seq
}

func reader(base string, city *cityInfo, r *rand.Rand, res *results) {
	group, pkg := city.pick(r)
	for i := 0; i < 3; i++ {
		switch pick := r.Intn(4); {
		case pick == 0:
			do(res, nil, "GET", base+"/cities/"+city.key, nil, 0)
		case pick == 1:
			do(res, nil, "GET", fmt.Sprintf("%s/cities/%s/pois?k=%d", base, city.key, 4+r.Intn(5)), nil, 0)
		case pick == 2 && group >= 0:
			do(res, nil, "GET", fmt.Sprintf("%s/cities/%s/groups/%d", base, city.key, group), nil, 0)
		case pick == 3 && pkg >= 0:
			do(res, nil, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", base, city.key, pkg), nil, 0)
		default:
			do(res, nil, "GET", base+"/cities/"+city.key, nil, 0)
		}
	}
}

var consensusFns = []string{"avg", "leastmisery", "pairwise", "variance"}

// builderMembers is the size of every group a builder creates.
const builderMembers = 3

func builder(base string, city *cityInfo, r *rand.Rand, res *results, c *http.Client) {
	var members []map[string][]float64
	for m := 0; m < builderMembers; m++ {
		member := map[string][]float64{}
		for _, cat := range poi.Categories {
			v := make([]float64, city.dims[cat.String()])
			for j := range v {
				v[j] = float64(r.Intn(6))
			}
			member[cat.String()] = v
		}
		members = append(members, member)
	}
	var g struct {
		ID int `json:"id"`
	}
	status, body, _ := do(res, c, "POST", base+"/cities/"+city.key+"/groups", map[string]any{"members": members}, 0)
	if status != http.StatusCreated || json.Unmarshal(body, &g) != nil {
		return
	}
	city.addGroup(g.ID)

	var p struct {
		ID int `json:"id"`
	}
	status, body, seq := do(res, c, "POST", base+"/cities/"+city.key+"/packages", map[string]any{
		"group":     g.ID,
		"consensus": consensusFns[r.Intn(len(consensusFns))],
		"k":         4 + r.Intn(3),
	}, 0)
	if status != http.StatusCreated || json.Unmarshal(body, &p) != nil {
		return
	}
	city.addPkg(p.ID, builderMembers, seq)
	// Read-your-writes: the build must be visible to its own session
	// immediately, lag or no lag.
	do(res, c, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", base, city.key, p.ID), nil, 0)
}

// collaborator customizes a package: it reads the package, replaces a POI
// of one of its days on behalf of a member of its group, and reads the
// package back. The first read carries the package's latest commit seq as
// an explicit floor — earlier collaborators' edits are other sessions'
// writes, which this arrival's cookie does not cover — so the op always
// names a POI the package holds.
func collaborator(base string, city *cityInfo, r *rand.Rand, res *results, c *http.Client) {
	p, floor := city.checkout(r)
	if p == nil {
		builder(base, city, r, res, c) // nothing free to customize
		return
	}
	var seq int64
	defer func() { city.release(p, seq) }()
	url := fmt.Sprintf("%s/cities/%s/packages/%d", base, city.key, p.id)
	var pkg struct {
		Days []struct {
			Items []struct {
				ID int `json:"id"`
			} `json:"items"`
		} `json:"days"`
	}
	status, body, _ := do(res, c, "GET", url, nil, floor)
	if status != http.StatusOK || json.Unmarshal(body, &pkg) != nil || len(pkg.Days) == 0 {
		return
	}
	day := r.Intn(len(pkg.Days))
	items := pkg.Days[day].Items
	if len(items) == 0 {
		return
	}
	status, _, seq = do(res, c, "POST", url+"/ops", map[string]any{
		"member": r.Intn(p.members), "op": "replace", "ci": day, "poi": items[r.Intn(len(items))].ID,
	}, 0)
	if status == http.StatusOK {
		do(res, c, "GET", url, nil, 0) // read-your-writes through the cookie
	}
}

func refiner(base string, city *cityInfo, r *rand.Rand, res *results, c *http.Client) {
	_, pkg := city.pick(r)
	if pkg < 0 {
		builder(base, city, r, res, c)
		return
	}
	strategy := "batch"
	if r.Intn(2) == 0 {
		strategy = "individual"
	}
	do(res, c, "POST", fmt.Sprintf("%s/cities/%s/packages/%d/refine", base, city.key, pkg), map[string]any{
		"strategy": strategy, "rebuild": true, "k": 4,
	}, 0)
	do(res, c, "GET", fmt.Sprintf("%s/cities/%s/packages/%d", base, city.key, pkg), nil, 0)
}

// --- reporting ---

// scrapeRouter attaches the router's edge-cache ledger to the results.
func (res *results) scrapeRouter(routerURL string) {
	var health struct {
		EdgeEntries int `json:"edgeEntries"`
		Counters    struct {
			ReadsTotal        int64 `json:"readsTotal"`
			ReadsPrimary      int64 `json:"readsPrimary"`
			ReadsFollower     int64 `json:"readsFollower"`
			EdgeHits          int64 `json:"edgeHits"`
			EdgeMisses        int64 `json:"edgeMisses"`
			EdgeCoalesced     int64 `json:"edgeCoalesced"`
			EdgeInvalidations int64 `json:"edgeInvalidations"`
		} `json:"counters"`
	}
	if err := getJSON(routerURL+"/healthz", &health); err != nil {
		return // external routers may firewall /healthz; the run stands alone
	}
	res.Router = map[string]int64{
		"readsTotal":        health.Counters.ReadsTotal,
		"readsPrimary":      health.Counters.ReadsPrimary,
		"readsFollower":     health.Counters.ReadsFollower,
		"edgeHits":          health.Counters.EdgeHits,
		"edgeMisses":        health.Counters.EdgeMisses,
		"edgeCoalesced":     health.Counters.EdgeCoalesced,
		"edgeInvalidations": health.Counters.EdgeInvalidations,
		"edgeEntries":       int64(health.EdgeEntries),
	}
}

func (res *results) print(w *os.File) {
	fmt.Fprintf(w, "loadgen: %s for %.0fs at %.0f arrivals/s over %d cities (zipf %.2f, %d followers, edge cache %v)\n",
		res.Target, res.DurationSec, res.OfferedRate, res.Cities, res.Zipf, res.Followers, res.EdgeCache)
	fmt.Fprintf(w, "  %d requests, %.1f req/s served, %d errors, %d rejects (4xx), %d dropped arrivals\n",
		res.Requests, res.ThroughputRPS, res.Errors, res.Rejects, res.Dropped)
	classes := make([]string, 0, len(res.Classes))
	for c := range res.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := res.Classes[c]
		fmt.Fprintf(w, "  %-7s %7d reqs  p50 %8.2fms  p99 %8.2fms  p999 %8.2fms\n",
			c, cs.Count, cs.P50Ms, cs.P99Ms, cs.P999Ms)
	}
	if res.Router != nil {
		fmt.Fprintf(w, "  router: %d edge hits / %d misses / %d coalesced / %d invalidations (%d entries resident)\n",
			res.Router["edgeHits"], res.Router["edgeMisses"], res.Router["edgeCoalesced"],
			res.Router["edgeInvalidations"], res.Router["edgeEntries"])
	}
}

// mergeInto writes the results under the "macro" key of the trajectory
// file, preserving every other key (cmd/benchjson's Benchmark* entries
// and _meta in particular).
func (res *results) mergeInto(path string) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s exists but is not a JSON object: %w", path, err)
		}
	}
	macro, err := json.Marshal(res)
	if err != nil {
		return err
	}
	doc["macro"] = macro
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
