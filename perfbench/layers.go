package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"grouptravel/internal/consensus"
	"grouptravel/internal/core"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/store"
	"grouptravel/internal/telemetry"
)

// snapshot is every counter the per-layer metrics difference, read from
// the tiers' public /metrics and /healthz surfaces.
type snapshot struct {
	primary, follower promText
	loads             int64 // registry loads, both shards
	clusterMisses     int64 // engine cluster-cache misses, primary
	clusterEvictions  int64
	router            routerCounters
}

type routerCounters struct {
	ReadsTotal        float64 `json:"readsTotal"`
	ReadsFollower     float64 `json:"readsFollower"`
	Mutations         float64 `json:"mutations"`
	EdgeHits          float64 `json:"edgeHits"`
	EdgeMisses        float64 `json:"edgeMisses"`
	EdgeInvalidations float64 `json:"edgeInvalidations"`
}

func takeSnapshot(t *topology) (snapshot, error) {
	var s snapshot
	var err error
	if s.primary, err = scrapeProm(t.primary.url); err != nil {
		return s, err
	}
	if s.follower, err = scrapeProm(t.follower.url); err != nil {
		return s, err
	}
	for _, p := range []*proc{t.primary, t.follower} {
		var h struct {
			Registry struct {
				Loads int64 `json:"loads"`
			} `json:"registry"`
			Cities map[string]struct {
				Cache core.CacheStats `json:"clusterCache"`
			} `json:"cities"`
		}
		if err := getJSON(http.DefaultClient, p.url+"/healthz", &h); err != nil {
			return s, err
		}
		s.loads += h.Registry.Loads
		if p == t.primary {
			for _, c := range h.Cities {
				s.clusterMisses += c.Cache.Misses
				s.clusterEvictions += c.Cache.Evictions
			}
		}
	}
	var rh struct {
		Counters routerCounters `json:"counters"`
	}
	if err := getJSON(http.DefaultClient, t.router.url+"/healthz", &rh); err != nil {
		return s, err
	}
	s.router = rh.Counters
	return s, nil
}

func scrapeProm(url string) (promText, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

// compactionWatch times the primary's compactions of one city from the
// filesystem: a compaction seals the log as the pending segment and
// removes it once the snapshot is durable, so the pending file's
// lifetime is the compaction's.
type compactionWatch struct {
	mu        sync.Mutex
	intervals []interval
	stopc     chan struct{}
	done      chan struct{}
}

func watchCompactions(snapDir, city string) *compactionWatch {
	w := &compactionWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	path := store.PendingWALPath(snapDir, city)
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var since time.Time
		for {
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
			_, err := os.Stat(path)
			now := time.Now()
			switch {
			case err == nil && since.IsZero():
				since = now
			case err != nil && !since.IsZero():
				w.mu.Lock()
				w.intervals = append(w.intervals, interval{start: since, end: now,
					ms: float64(now.Sub(since)) / float64(time.Millisecond)})
				w.mu.Unlock()
				since = time.Time{}
			}
		}
	}()
	return w
}

func (w *compactionWatch) stop() []interval {
	close(w.stopc)
	<-w.done
	return w.intervals
}

// tierSpan mirrors gtnode's span records.
type tierSpan struct {
	ID     string `json:"id"`
	Layer  string `json:"layer"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func readSpans(paths ...string) (map[string][]tierSpan, error) {
	out := map[string][]tierSpan{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s tierSpan
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			out[s.ID] = append(out[s.ID], s)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spanStats reduces traced spans: per-class shard handler time, and for
// reads the router's self time (its span minus the part its upstream
// round trips cover) and upstream time.
type spanStats struct {
	server           map[string][]float64 // class -> ms
	routerSelf, upMs []float64
}

func reduceSpans(spans map[string][]tierSpan, phaseOf func(class string) string) spanStats {
	st := spanStats{server: map[string][]float64{}}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for id, ss := range spans {
		// ids are pbt-<phase>-<client>-<n>
		phase := strings.SplitN(strings.TrimPrefix(id, "pbt-"), "-", 2)[0]
		var rt *tierSpan
		var up []tierSpan
		for i := range ss {
			s := ss[i]
			switch s.Layer {
			case "server":
				if class := classOf(s.Method, s.Path); phaseOf(class) == phase {
					st.server[class] = append(st.server[class], ms(s.End-s.Start))
				}
			case "router":
				rt = &ss[i]
			case "upstream":
				up = append(up, s)
			}
		}
		if rt == nil || rt.Method != http.MethodGet || phase != "w" {
			continue
		}
		var covered int64
		for _, u := range up {
			covered += max(0, min(u.End, rt.End)-max(u.Start, rt.Start))
		}
		st.routerSelf = append(st.routerSelf, ms(rt.End-rt.Start-covered))
		st.upMs = append(st.upMs, ms(covered))
	}
	return st
}

// replayBuilds times core.Engine.Build on every recorded package-creation
// input, in recorded order, on a fresh engine per city — the engine's
// share of a build without HTTP, the WAL or the other tiers.
func replayBuilds(cities []*cityData, inputs []buildInput) ([]float64, error) {
	byKey := map[string]*cityData{}
	for _, cd := range cities {
		byKey[cd.key] = cd
	}
	engines := map[string]*core.Engine{}
	var out []float64
	for _, in := range inputs {
		cd := byKey[in.city]
		eng := engines[in.city]
		if eng == nil {
			var err error
			if eng, err = core.NewEngine(cd.city); err != nil {
				return nil, err
			}
			engines[in.city] = eng
		}
		gp, err := groupProfile(cd, in)
		if err != nil {
			return nil, err
		}
		q := query.Default()
		if in.query != nil {
			if q, err = query.New(in.query.Acco, in.query.Trans, in.query.Rest, in.query.Attr, math.Inf(1)); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if _, err := eng.Build(gp, q, core.DefaultParams(in.k)); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/float64(time.Millisecond))
	}
	return out, nil
}

// groupProfile aggregates a recorded group the way the server does.
func groupProfile(cd *cityData, in buildInput) (*profile.Profile, error) {
	schema := cd.city.Schema
	var members []*profile.Profile
	for _, m := range in.members {
		ratings := map[poi.Category][]float64{}
		for name, v := range m {
			c, err := poi.ParseCategory(name)
			if err != nil {
				return nil, err
			}
			ratings[c] = v
		}
		p, err := profile.FromRatings(schema, ratings)
		if err != nil {
			return nil, err
		}
		members = append(members, p)
	}
	method := map[string]consensus.Method{
		"avg": consensus.AveragePref, "leastmisery": consensus.LeastMisery,
		"pairwise": consensus.PairwiseDis, "variance": consensus.VarianceDis,
	}[in.consensus]
	agg, err := consensus.NewIncremental(schema, method)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if err := agg.Join(m); err != nil {
			return nil, err
		}
	}
	return agg.Profile()
}

// layerInputs is what a traced run hands the per-layer reduction.
type layerInputs struct {
	led   *ledger
	spans spanStats
	core  []float64 // replayed engine build times, ms
	// snaps are counter snapshots before seeding, after seeding, before
	// the window and after it.
	snaps        []snapshot
	windowBuilds bool
	compactions  []interval
	frames       int64 // records the follower applied in the window
	frameBytes   int64
	lagMax       float64
	hot          string
	tierCPUMs    map[string]float64 // CPU ms per window request, by tier
	genMs        float64            // the generator's CPU ms per request
	rss          float64
}

func layerMetrics(res *result, in layerInputs) {
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	s0, w0, w1 := in.snaps[0], in.snaps[2], in.snaps[3]
	b0, b1 := in.snaps[0], in.snaps[1] // the phase builds come from
	if in.windowBuilds {
		b0, b1 = w0, w1
	}
	delta := func(a, b promText, name string, want ...string) float64 {
		return b.sum(name, want...) - a.sum(name, want...)
	}
	both := func(a, b snapshot, name string, want ...string) float64 {
		return delta(a.primary, b.primary, name, want...) + delta(a.follower, b.follower, name, want...)
	}

	put("gen.late_p99_ms", "ms", quantile(in.led.late, 0.99))
	for _, tier := range []string{"router", "primary", "follower"} {
		put("tier."+tier+"_cpu_ratio", "ratio", in.tierCPUMs[tier]/in.genMs)
	}
	put("tier.peak_rss_mb", "MiB", in.rss)

	rc0, rc1 := w0.router, w1.router
	put("router.self_ms_mean", "ms", mean(in.spans.routerSelf))
	put("router.upstream_ms_mean", "ms", mean(in.spans.upMs))
	hits, misses := rc1.EdgeHits-rc0.EdgeHits, rc1.EdgeMisses-rc0.EdgeMisses
	put("router.edge_hit_ratio", "ratio", ratio(hits, hits+misses))
	put("router.edge_invalidations_per_write", "ratio",
		ratio(rc1.EdgeInvalidations-rc0.EdgeInvalidations, rc1.Mutations-rc0.Mutations))
	put("router.follower_read_share", "ratio", ratio(rc1.ReadsFollower-rc0.ReadsFollower, rc1.ReadsTotal-rc0.ReadsTotal))

	for _, class := range []string{telemetry.ClassRead, telemetry.ClassBuild, telemetry.ClassRefine, telemetry.ClassCollab} {
		put("server."+class+"_ms_mean", "ms", mean(in.spans.server[class]))
	}
	bh, bm := both(w0, w1, "gt_bytecache_hits_total"), both(w0, w1, "gt_bytecache_misses_total")
	put("server.bytecache_hit_ratio", "ratio", ratio(bh, bh+bm))
	dedups := delta(b0.primary, b1.primary, "gt_build_dedups_total")
	put("server.build_dedups", "count", dedups)
	engineBuilds := func(a, b snapshot) float64 {
		return delta(a.primary, b.primary, "gt_http_requests_total", `class="build"`) +
			delta(a.primary, b.primary, "gt_http_requests_total", `class="refine"`)
	}
	put("server.builds_in_window", "count", engineBuilds(w0, w1))

	put("core.build_ms_mean", "ms", mean(in.core))
	// A p90: a traced window records about 900 package creations on
	// plan and 560 on browse, too few for a p99 with ten samples beyond it.
	put("core.build_ms_p90", "ms", quantile(in.core, 0.90))
	lookups := engineBuilds(b0, b1) - dedups
	put("core.cluster_hit_ratio", "ratio", ratio(lookups-float64(b1.clusterMisses-b0.clusterMisses), lookups))
	put("core.cluster_evictions", "count", float64(b1.clusterEvictions-b0.clusterEvictions))

	writes := float64(len(in.led.writes))
	put("store.append_ms_mean", "ms", 1000*ratio(delta(w0.primary, w1.primary, "gt_wal_append_seconds_sum", ""),
		delta(w0.primary, w1.primary, "gt_wal_append_seconds_count", "")))
	// Fsyncs are observed into the log-size-labelled series.
	put("store.fsync_ms_mean", "ms", 1000*ratio(delta(w0.primary, w1.primary, "gt_wal_fsync_seconds_sum"),
		delta(w0.primary, w1.primary, "gt_wal_fsync_seconds_count")))
	put("store.fsyncs_per_write", "ratio", ratio(delta(w0.primary, w1.primary, "gt_wal_fsyncs_total"), writes))
	put("store.bytes_per_write", "B", ratio(float64(in.frameBytes), float64(in.frames)))
	put("store.compactions", "count", delta(w0.primary, w1.primary, "gt_wal_compactions_total", `city="`+in.hot+`"`))
	var compMax float64
	var inCompaction []float64
	for _, c := range in.compactions {
		compMax = max(compMax, c.ms)
	}
	for _, r := range in.led.collab {
		for _, c := range in.compactions {
			if r.start.Before(c.end) && c.start.Before(r.end) {
				inCompaction = append(inCompaction, r.ms)
				break
			}
		}
	}
	// A window holds one to a few compactions, which a few to a few dozen
	// collab requests overlap: enough for a median, not for a tail.
	logf("%d replayed builds, %d collab requests during %d compactions", len(in.core), len(inCompaction), len(in.compactions))
	put("store.compaction_ms_max", "ms", compMax)
	put("store.collab_p50_in_compaction_ms", "ms", quantile(inCompaction, 0.50))

	applied := delta(w0.follower, w1.follower, "gt_replication_frames_applied_total")
	put("replicate.frames_applied", "count", applied)
	put("replicate.applies_per_fsync", "ratio", ratio(applied, delta(w0.follower, w1.follower, "gt_wal_fsyncs_total")))
	put("replicate.lag_records_max", "count", in.lagMax)

	put("registry.loads_during_run", "count", float64(w1.loads-s0.loads))
	put("trace.read_overhead_ms", "ms",
		quantile(in.led.traced[telemetry.ClassRead], 0.5)-quantile(in.led.untraced[telemetry.ClassRead], 0.5))
}
