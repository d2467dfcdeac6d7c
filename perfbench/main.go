// Command perfbench is the GroupTravel benchmark. It boots a primary, a
// streaming follower and the edge-cached router as separate processes
// (gtnode), drives one workload through the router for a fixed window,
// checks every answer, and prints one JSON result line last.
//
//	perfbench --workload browse|plan --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans recorded at the tiers' boundaries and
// the tiers' own counters. perfbench/run.sh builds both binaries from
// the checkout and runs this; README.md in this directory defines every
// metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/telemetry"
)

// Fixed shape of every workload's topology and data.
const (
	numCities   = 4
	datasetSeed = 20190326 // the cities are fixed; --seed drives the traffic
	warmup      = time.Second
	// healthSettle outlasts the router's 500ms health poll, so routing
	// and the edge cache see the set-up's final applied seqs.
	healthSettle = 600 * time.Millisecond
	// rounds of set-up and window make one untraced run; the window is
	// split evenly between them.
	rounds = 3
)

type workload struct {
	// perCity is how many packages set-up seeds per city, hot city
	// first; nil seeds none.
	perCity []int
	// windowBuilds is set when the window itself builds packages; the
	// other workloads report build metrics from set-up's seeding.
	windowBuilds bool
	run          func(e *env, clients []*client, led *ledger, seed int64, window time.Duration)
}

var workloads = map[string]*workload{
	"browse": {perCity: []int{1000, 40, 40, 40}, run: runBrowse},
	"plan":   {windowBuilds: true, run: runPlan},
}

// env is one set-up's live system and data.
type env struct {
	topo   *topology
	cities []*cityData // zipf rank order: cities[0] is the hot city
	nproc  int
}

func (e *env) hot() *cityData { return e.cities[0] }

// owned picks the x-th package of cd owned by c: packages are dealt to
// clients by index, so no two clients ever edit one package.
func (e *env) owned(c *client, cd *cityData, x int) seededPkg {
	n := (len(cd.pkgs) - c.id + e.nproc - 1) / e.nproc
	return cd.pkgs[c.id+(x%n)*e.nproc]
}

func main() {
	os.Exit(run())
}

func run() int {
	// The generator's own collections compete with the tiers for the
	// CPUs; collect less often.
	debug.SetGCPercent(400)
	name := flag.String("workload", "", "browse or plan")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured window, seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload browse|plan --seed N --seconds S --trace 0|1")
		return 2
	}
	// gtnode is built next to this binary; the run directory goes under
	// the checkout's build directory, the working directory.
	exe, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 1
	}
	runDir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	b := &bench{w: w, bin: filepath.Dir(exe), dir: runDir, seed: *seed, trace: *trace == 1,
		window: time.Duration(*seconds) * time.Second, nproc: runtime.NumCPU()}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		b.stop()
		os.RemoveAll(runDir)
		os.Exit(1)
	}()
	defer b.stop()

	steal0, total0 := cpuTicks()
	res, err := b.measure()
	if err != nil {
		logf("%v", err)
		return 1
	}
	f := hostFacts(".", runDir)
	f.Workload, f.Seed, f.Seconds, f.Trace, f.WALSync = *name, *seed, *seconds, b.trace, b.walSync
	f.Rounds = rounds
	if b.trace {
		f.Rounds = 1
	}
	steal1, total1 := cpuTicks()
	f.StealShare = ratio(steal1-steal0, total1-total0)
	line, _ := json.Marshal(map[string]any{"facts": f})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// bench is one benchmark run.
type bench struct {
	w      *workload
	bin    string
	dir    string
	seed   int64
	trace  bool
	window time.Duration
	nproc  int

	mu      sync.Mutex
	env     *env
	walSync string
}

func (b *bench) stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.env != nil {
		b.env.topo.stop()
		b.env = nil
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs the rounds of set-up then window, each window a share of
// the run's window, and reduces them: setup_s is the median set-up, and
// server_cpu_ratio the tiers' CPU time over all windows divided by the
// generator's. A traced run makes one round with the whole window.
func (b *bench) measure() (*result, error) {
	n := rounds
	if b.trace {
		n = 1
	}
	window := b.window / time.Duration(n)
	seedLed := newLedger() // set-up seeding
	led := newLedger()     // windows
	var setupS, cpuMs, genMs, rss, visible []float64
	var rd *round
	for i := 0; i < n; i++ {
		start := time.Now()
		steal0, total0 := cpuTicks()
		clients, sl, snaps, err := b.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if rd, err = b.runWindow(clients, window, snaps); err != nil {
			return nil, err
		}
		seedLed.merge(sl)
		led.merge(rd.led)
		visible = append(visible, rd.visible...)
		cpuMs = append(cpuMs, rd.cpuMs)
		genMs = append(genMs, rd.genMs)
		rss = append(rss, rd.rss)
		steal1, total1 := cpuTicks()
		logf("round %d: set-up %.2fs, %d requests, CPU ms per request %.4f tiers and %.4f generator, server_cpu_ratio %.4f, rss_mb %.1f, steal %.3f",
			i+1, setupS[i], rd.led.attempted, rd.cpuMs, rd.genMs, rd.cpuMs/rd.genMs, rd.rss, ratio(steal1-steal0, total1-total0))
	}

	seedLed.reportFailures(os.Stderr, "set-up")
	led.reportFailures(os.Stderr, "window")
	res := &result{
		Attempted: led.attempted + seedLed.attempted,
		Failed:    led.failed + seedLed.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	buildLed := seedLed
	if b.w.windowBuilds {
		buildLed = led
	}
	if !b.trace {
		printUngated(map[string][]float64{"read": led.lat["read"], "build": buildLed.lat["build"],
			"refine": buildLed.lat["refine"], "collab": led.lat["collab"], "visible": visible}, led.late,
			median(cpuMs), median(genMs), median(rss))
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		// Every round sends the same requests, so the mean of the per-request
		// times weights the rounds as their totals would.
		res.Metrics["server_cpu_ratio"] = metric{mean(cpuMs) / mean(genMs), "ratio"}
		return res, nil
	}

	paths := []string{}
	for _, p := range []string{"router", "primary", "follower"} {
		paths = append(paths, filepath.Join(b.dir, p+".spans"))
	}
	spans, err := readSpans(paths...)
	if err != nil {
		return nil, err
	}
	phaseOf := func(class string) string {
		if !b.w.windowBuilds && (class == telemetry.ClassBuild || class == telemetry.ClassRefine) {
			return "s"
		}
		return "w"
	}
	core, err := replayBuilds(rd.cities, buildLed.builds)
	if err != nil {
		return nil, fmt.Errorf("core replay: %w", err)
	}
	layerMetrics(res, layerInputs{
		led: led, spans: reduceSpans(spans, phaseOf), core: core,
		snaps: rd.snaps, windowBuilds: b.w.windowBuilds,
		compactions: rd.compactions, frames: rd.frames, frameBytes: rd.frameBytes, lagMax: rd.lagMax,
		hot: rd.cities[0].key, tierCPUMs: rd.tierCPUMs, genMs: rd.genMs, rss: rd.rss,
	})
	return res, nil
}

// round is what one window leaves behind.
type round struct {
	led         *ledger
	visible     []float64
	rss         float64
	cities      []*cityData
	snaps       []snapshot
	compactions []interval
	frames      int64
	frameBytes  int64
	lagMax      float64
	// cpuMs is the tiers' CPU time per request of the window, tierCPUMs
	// the same per tier, and genMs the generator's.
	cpuMs     float64
	tierCPUMs map[string]float64
	genMs     float64
}

// runWindow measures the workload on the live set-up, waits for the
// follower to apply every acknowledged write, and stops the tiers.
func (b *bench) runWindow(clients []*client, window time.Duration, snaps []snapshot) (*round, error) {
	defer b.stop() // the tiers write their spans on exit
	e := b.env
	from, err := appliedSeqs(e.topo.follower.url)
	if err != nil {
		return nil, err
	}
	mon := startMonitor(e.topo.follower.url, from)
	defer mon.stop()
	if err := awaitStreams(e.topo.follower.url, len(from)); err != nil {
		return nil, err
	}
	var cw *compactionWatch
	if b.trace {
		cw = watchCompactions(filepath.Join(b.dir, "primary"), e.hot().key)
	}
	led := newLedger()
	for _, c := range clients {
		c.led, c.phase = led, "w"
	}
	// Every window starts from a collected heap, so the generator's own
	// collections in it, which its CPU time includes, do not depend on
	// what set-up left behind.
	runtime.GC()
	cpu0, gen0 := e.topo.cpuSeconds(), pidCPUSeconds(os.Getpid())
	b.w.run(e, clients, led, b.seed, window)
	cpu1, gen1 := e.topo.cpuSeconds(), pidCPUSeconds(os.Getpid())
	perReq := func(s float64) float64 { return 1000 * ratio(s, float64(led.attempted)) }
	rd := &round{led: led, cities: e.cities, snaps: snaps, genMs: perReq(gen1 - gen0), tierCPUMs: map[string]float64{}}
	for name, s := range cpu1 {
		rd.tierCPUMs[name] = perReq(s - cpu0[name])
		rd.cpuMs += rd.tierCPUMs[name]
	}
	if cw != nil {
		rd.compactions = cw.stop()
	}
	if missing := mon.await(led.writes, 10*time.Second); missing > 0 {
		led.mu.Lock()
		led.failed += int64(missing)
		led.reasons["acknowledged write never applied on the follower"] += int64(missing)
		led.mu.Unlock()
	}
	rd.visible, rd.lagMax = visibility(mon, led, from)
	mon.mu.Lock()
	rd.frames, rd.frameBytes = mon.frames, mon.bytes
	mon.mu.Unlock()
	if b.trace {
		s, err := takeSnapshot(e.topo)
		if err != nil {
			return nil, err
		}
		rd.snaps = append(rd.snaps, s)
	}
	rd.rss = e.topo.rssMB()
	for _, c := range clients {
		c.close()
	}
	return rd, nil
}

// setUp generates the cities, boots the tiers, seeds the workload's
// packages, catches the follower up and warms up on the workload itself.
// It returns the window's clients, the seeding ledger and, traced,
// counter snapshots before seeding, after it and after set-up.
func (b *bench) setUp() ([]*client, *ledger, []snapshot, error) {
	fail := func(err error) ([]*client, *ledger, []snapshot, error) {
		return nil, nil, nil, err
	}
	if err := os.RemoveAll(b.dir); err != nil {
		return fail(err)
	}
	cities, err := makeCities(filepath.Join(b.dir, "cities"))
	if err != nil {
		return fail(err)
	}
	keys := make([]string, len(cities))
	for i, cd := range cities {
		keys[i] = cd.key
	}
	topo, err := startTopology(b.bin, b.dir, keys, b.trace)
	if err != nil {
		return fail(err)
	}
	e := &env{topo: topo, cities: cities, nproc: b.nproc}
	b.mu.Lock()
	b.env = e
	b.mu.Unlock()
	var h struct {
		WALSync string `json:"walSync"`
	}
	if err := getJSON(http.DefaultClient, topo.primary.url+"/healthz", &h); err != nil {
		return fail(err)
	}
	b.walSync = h.WALSync
	var snaps []snapshot
	snap := func() error {
		if !b.trace {
			return nil
		}
		s, err := takeSnapshot(topo)
		snaps = append(snaps, s)
		return err
	}
	if err := snap(); err != nil {
		return fail(err)
	}

	seedLed := newLedger()
	if b.w.perCity != nil {
		seeders := make([]*client, b.nproc)
		for i := range seeders {
			seeders[i] = newClient(i, topo.router.url, b.seed*7919+int64(i), b.trace)
			seeders[i].led, seeders[i].phase = seedLed, "s"
		}
		seed(seeders, cities, b.w.perCity)
		for _, c := range seeders {
			c.close()
		}
		for _, cd := range cities {
			sort.Slice(cd.pkgs, func(i, j int) bool { return cd.pkgs[i].id < cd.pkgs[j].id })
			sort.Ints(cd.groups)
		}
	}
	if err := catchUp(topo); err != nil {
		return fail(err)
	}
	if err := snap(); err != nil {
		return fail(err)
	}

	// The window's clients own the seeded packages round-robin and warm
	// up by running the workload briefly.
	clients := make([]*client, b.nproc)
	for i := range clients {
		c := newClient(i, topo.router.url, b.seed*104729+int64(i), b.trace)
		c.led, c.phase = seedLed, "u"
		for _, cd := range cities {
			for j := i; j < len(cd.pkgs); j += b.nproc {
				c.models[pkgKey{cd.key, cd.pkgs[j].id}] = cd.pkgs[j].items
			}
		}
		clients[i] = c
	}
	b.w.run(e, clients, seedLed, b.seed-1, warmup)
	if err := catchUp(topo); err != nil {
		return fail(err)
	}
	time.Sleep(healthSettle)
	if err := snap(); err != nil {
		return fail(err)
	}
	return clients, seedLed, snaps, nil
}

// makeCities generates the benchmark's full-size cities and writes them
// where the shards load datasets from.
func makeCities(dir string) ([]*cityData, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []*cityData
	for i := 0; i < numCities; i++ {
		name := fmt.Sprintf("Bench%d", i)
		city, err := dataset.Generate(dataset.DefaultSpec(name, geo.Point{Lat: 48.8566, Lon: 2.3522}, datasetSeed+int64(i)))
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(name)
		f, err := os.Create(filepath.Join(dir, key+".json"))
		if err != nil {
			return nil, err
		}
		if err := errors.Join(city.SaveJSON(f), f.Close()); err != nil {
			return nil, err
		}
		cd := &cityData{key: key, city: city}
		for _, p := range city.POIs.All() {
			cd.poiIDs = append(cd.poiIDs, p.ID)
		}
		out = append(out, cd)
	}
	return out, nil
}

func appliedSeqs(url string) (map[string]int64, error) {
	var rows []struct {
		Key        string `json:"key"`
		AppliedSeq int64  `json:"appliedSeq"`
	}
	if err := getJSON(http.DefaultClient, url+"/cities", &rows); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, r := range rows {
		out[r.Key] = r.AppliedSeq
	}
	return out, nil
}

// catchUp waits until the follower has applied everything the primary
// committed.
func catchUp(t *topology) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		p, err := appliedSeqs(t.primary.url)
		if err != nil {
			return err
		}
		f, err := appliedSeqs(t.follower.url)
		if err != nil {
			return err
		}
		behind := false
		for k, seq := range p {
			behind = behind || f[k] < seq
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("follower did not catch up within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitStreams waits until the follower holds n push streams open.
func awaitStreams(url string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, err := scrapeProm(url)
		if err == nil && int(p.sum("gt_replication_stream_open")) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("visibility streams did not open within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// visibility returns, per acknowledged write, the delay from its ack to
// the follower applying it, and the most records the follower trailed by
// at any write's ack.
func visibility(m *monitor, led *ledger, base map[string]int64) ([]float64, float64) {
	var out []float64
	var lagMax int64
	for _, w := range led.writes {
		if at, ok := m.visibleAt(w.city, w.seq); ok {
			out = append(out, float64(at.Sub(w.ack))/float64(time.Millisecond))
		}
		lagMax = max(lagMax, w.seq-m.appliedAt(w.city, w.ack, base[w.city]))
	}
	return out, float64(lagMax)
}

// printUngated prints, as its own JSON line before the result, what a
// run measures in wall-clock time or raw CPU time: latency percentiles
// per class pooled over the rounds with their sample counts, how late the
// open-loop generator ran, the tiers' and the generator's CPU ms per
// request and the tiers' peak RSS. None of it is gated: on a shared
// two-vCPU host the same code reads up to twice as slow from one run to
// the next (see README.md).
func printUngated(samples map[string][]float64, late []float64, cpuMs, genMs, rss float64) {
	out := map[string]any{"late_p50_ms": quantile(late, 0.50), "late_p99_ms": quantile(late, 0.99),
		"tier_cpu_ms_per_req": cpuMs, "gen_cpu_ms_per_req": genMs, "rss_mb": rss}
	for class, xs := range samples {
		for _, q := range []float64{0.50, 0.90, 0.99} {
			out[fmt.Sprintf("%s_p%d_ms", class, int(q*100))] = quantile(xs, q)
		}
		out[class+"_samples"] = len(xs)
	}
	line, _ := json.Marshal(map[string]any{"ungated": out})
	fmt.Println(string(line))
}

// --- workloads ---

// runBrowse: open loop at 600 arrivals/s over zipf-1.2 cities; 90% are
// token-less GETs of a city, its POIs, a group or a package, 10% a
// collaborator reading and customizing one of its packages (a session GET
// and an op). Requests are 82% token-less GETs, 9% session GETs and 9%
// ops: 10% rather than 5% collaborators, so that a round's collab and
// visible p50 rest on about 300 samples.
func runBrowse(e *env, clients []*client, led *ledger, seed int64, window time.Duration) {
	var zipf *rand.Zipf
	runOpen(clients, led, seed, 600, window, func(r *rand.Rand) arrival {
		if zipf == nil {
			zipf = rand.NewZipf(r, 1.2, 1, uint64(len(e.cities)-1))
		}
		a := arrival{city: int(zipf.Uint64()), kind: r.Intn(4), x: r.Intn(1 << 30)}
		if r.Float64() < 0.10 {
			a.kind = 4
		}
		return a
	}, func(c *client, a arrival) {
		cd := e.cities[a.city]
		switch a.kind {
		case 0:
			c.readBare(cd.key, cityPath(cd.key), a.due)
		case 1:
			c.readBare(cd.key, fmt.Sprintf("%s?k=%d", cityPath(cd.key, "pois"), 5+a.x%5), a.due)
		case 2:
			c.readBare(cd.key, cityPath(cd.key, "groups", cd.groups[a.x%len(cd.groups)]), a.due)
		case 3:
			c.readBare(cd.key, cityPath(cd.key, "packages", cd.pkgs[a.x%len(cd.pkgs)].id), a.due)
		default:
			if len(cd.pkgs) < e.nproc {
				cd = e.hot() // too few packages to deal one to every client
			}
			c.customize(cd, e.owned(c, cd, a.x), a.due)
		}
	})
}

// runPlan: open loop at 30 planning sessions/s on the hot city, with 120
// clustering keys in play. A fixed rate, not a closed loop, so that a
// window does the same work on a fast host as on a slow one: the WAL,
// the snapshot and the cluster cache grow with the sessions run, and what
// a request costs grows with them. A session is six requests in a row,
// most of them waiting on an fsync, so the rate leaves the nproc clients
// idle more than half the time.
func runPlan(e *env, clients []*client, led *ledger, seed int64, window time.Duration) {
	runOpen(clients, led, seed, 30, window, func(*rand.Rand) arrival { return arrival{} },
		func(c *client, a arrival) { c.planCycle(e.hot(), mixedParams, a.due) })
}
