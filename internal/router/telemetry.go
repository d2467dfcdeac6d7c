package router

// Telemetry wiring for the front tier. The routing counters that /healthz
// has always reported are registry-backed now — /metrics renders the same
// values — plus per-node health-poll latency histograms, node-up gauges,
// and the per-class HTTP metrics the shared middleware records.

import (
	"grouptravel/internal/telemetry"
)

// newCounters registers the routing counters. The names mirror the
// countersJSON fields /healthz reports; both read the same values.
func newCounters(reg *telemetry.Registry) counters {
	c := func(name, help string) *telemetry.Counter { return reg.Counter(name, help) }
	ctr := counters{
		readsTotal:         c("gt_router_reads_total", "GETs routed."),
		readsPrimary:       c("gt_router_reads_primary_total", "Reads served by a shard's primary."),
		readsFollower:      c("gt_router_reads_follower_total", "Reads served by a follower replica."),
		readsPinned:        c("gt_router_reads_pinned_total", "Reads carrying a read-your-writes floor."),
		readFailovers:      c("gt_router_read_failovers_total", "Read candidates skipped after a failure."),
		followersShed:      c("gt_router_followers_shed_total", "Followers shed from token-less reads for lag."),
		mutations:          c("gt_router_mutations_total", "POSTs routed."),
		mutationRetries403: c("gt_router_mutation_retries_403_total", "Mutations healed by chasing a 403's primary hint."),
		mutationFailovers:  c("gt_router_mutation_failovers_total", "Mutation attempts failed over to another node."),
		autoPromotions:     c("gt_router_auto_promotions_total", "Followers auto-promoted after a primary lease expired."),
		edgeHits:           c("gt_router_edgecache_hits_total", "Routed reads served from the edge cache, zero proxy hops."),
		edgeMisses:         c("gt_router_edgecache_misses_total", "Edge-cache lookups that missed or failed freshness validation."),
		edgeCoalesced:      c("gt_router_edgecache_coalesced_total", "Concurrent misses collapsed into another request's fill."),
		edgeInvalidations:  c("gt_router_edgecache_invalidations_total", "Proxied mutations recorded by the edge cache (each invalidates the entity it changed), plus city purges."),
		edgeProven:         c("gt_router_edgecache_proven_hits_total", "Edge-cache hits rendered below the reader's floor, proven current by the change log."),
	}
	for i, name := range fallbackNames {
		ctr.edgeFallbacks[i] = reg.Counter("gt_router_edgecache_fallbacks_total",
			"Edge-cache lookups the change log could not decide, served by the plain applied-seq rule (reason epoch: term changes that purged a city).", "reason", name)
	}
	return ctr
}

// instrument attaches per-node scrape instruments to the health feed:
// poll latency histograms and an up/down gauge per backend node. The
// registry is kept so setNodes (topology reload) can instrument
// backends added later; registration is idempotent per (name, labels),
// so a node that leaves and returns reuses its series.
func (hf *healthFeed) instrument(reg *telemetry.Registry) {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	hf.reg = reg
	hf.pollLat = make(map[string]*telemetry.Histogram, len(hf.urls))
	hf.nodeUp = make(map[string]*telemetry.Gauge, len(hf.urls))
	for _, u := range hf.urls {
		hf.instrumentLocked(u)
	}
}

// instrumentLocked registers (or re-attaches) one node's instruments;
// no-op before instrument has supplied the registry. Caller holds hf.mu.
func (hf *healthFeed) instrumentLocked(u string) {
	if hf.reg == nil || hf.pollLat[u] != nil {
		return
	}
	hf.pollLat[u] = hf.reg.Histogram("gt_router_health_poll_seconds",
		"Health-poll round trip per backend node.", nil, "node", u)
	hf.nodeUp[u] = hf.reg.Gauge("gt_router_node_up",
		"1 when the node's last health poll succeeded.", "node", u)
}

// Metrics exposes the router's telemetry registry (the /metrics source).
func (rt *Router) Metrics() *telemetry.Registry { return rt.metrics }

// HTTPMetrics exposes the per-class HTTP instruments (SLO assertions).
func (rt *Router) HTTPMetrics() *telemetry.HTTPMetrics { return rt.httpM }
