// Package fuzzy implements the fuzzy clustering at the heart of KFC [13]
// and GroupTravel's Eq. 1: positioning k centroids that cover a city while
// letting every POI participate in several clusters (a hotel or the Louvre
// can appear in multiple CIs — the reason the paper picks *fuzzy* over hard
// clustering, §3.2).
//
// # A note on the paper's formulation
//
// Eq. 1 writes the clustering term as a maximization of
// Σ_j Σ_i w_ij^f (1 − d(i,μ_j)) with Σ_j w_ij = 1 and "f ≤ 1". Taken
// literally this program is degenerate: for f < 1, Σ_j w_ij^f over the
// simplex is maximized by the uniform membership row, which earns a
// k^(1−f) multiplier regardless of where the centroids sit — so the
// optimum puts all k centroids on the same global median point
// (empirically: alternating optimization collapses within one iteration).
// The paper cites Bezdek's fuzzy c-means [20] and builds on KFC, and FCM
// is what those actually run, so this package implements the classic FCM
// program
//
//	minimize  Σ_j Σ_i w_ij^m d(i,μ_j)²,   Σ_j w_ij = 1,   m > 1
//
// with the standard closed-form alternating updates
//
//	w_ij = 1 / Σ_l (d_ij / d_il)^(2/(m−1)),   μ_j = Σ_i w_ij^m x_i / Σ_i w_ij^m .
//
// The Eq. 1 quantity Σ w^f (1−d) is still provided (Eq1Value) for
// reporting the objective the paper states.
//
// # Concurrency
//
// Cluster is a pure function: it never mutates its inputs and shares no
// state between calls, so any number of clusterings may run concurrently.
// Within one call the alternating updates are parallelized over a worker
// pool (Config.Workers) with results bit-identical to the sequential path
// for a fixed seed — see updateMemberships and updateCentroids for why.
package fuzzy

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"grouptravel/internal/geo"
	"grouptravel/internal/rng"
)

// Config controls a clustering run.
type Config struct {
	K        int     // number of clusters (CIs per travel package)
	M        float64 // FCM fuzzifier, > 1 (2 is the classic choice)
	MaxIters int     // cap on alternating updates
	Tol      float64 // centroid-movement convergence threshold in km
	Seed     int64   // seeding of the k-means++-style initialization

	// Workers is the number of goroutines the alternating updates may use:
	// 0 picks GOMAXPROCS, 1 forces the sequential path. Any value produces
	// bit-identical results — the membership update is partitioned by
	// Weights row and the centroid update by cluster, so every float is
	// accumulated in exactly the order the sequential loops use. Small
	// inputs run sequentially regardless (goroutine overhead would dominate).
	Workers int
}

// DefaultConfig returns the configuration used throughout the
// reproduction: k clusters with the classic fuzzifier m = 2.
func DefaultConfig(k int) Config {
	return Config{K: k, M: 2, MaxIters: 60, Tol: 1e-4, Seed: 1}
}

// Result holds the fitted centroids and membership matrix.
type Result struct {
	Centroids []geo.Point
	// Weights[i][j] is w_ij — how strongly point i belongs to cluster j.
	// Each row sums to 1 (the Eq. 1 constraint).
	Weights [][]float64
	// Iterations actually performed before convergence.
	Iterations int
}

// Cluster fits k fuzzy centroids to the points. norm supplies the
// normalized distance of Eq. 1 (derive it from the same point cloud).
func Cluster(points []geo.Point, norm geo.Normalizer, cfg Config) (*Result, error) {
	n := len(points)
	switch {
	case cfg.K < 1:
		return nil, fmt.Errorf("fuzzy: k = %d", cfg.K)
	case n < cfg.K:
		return nil, fmt.Errorf("fuzzy: %d points for k = %d clusters", n, cfg.K)
	case cfg.M <= 1:
		return nil, fmt.Errorf("fuzzy: need fuzzifier m > 1, got %v", cfg.M)
	case cfg.MaxIters < 1:
		return nil, fmt.Errorf("fuzzy: MaxIters = %d", cfg.MaxIters)
	case cfg.Tol <= 0:
		return nil, fmt.Errorf("fuzzy: Tol = %v", cfg.Tol)
	}

	// Every distance the alternating updates take is point→centroid, so
	// the points are prepared once per call and the centroids once per
	// iteration (geo.Prepared): no trigonometry in the O(n·k) loops.
	prepared := geo.PrepareAll(nil, points)
	centroids := seedCentroids(points, prepared, cfg)
	cprep := make([]geo.Prepared, cfg.K)
	// One flat backing array for the whole membership matrix: n+1 small
	// allocations become 2, and the rows sit contiguously in cache order.
	weights := make([][]float64, n)
	back := make([]float64, n*cfg.K)
	for i := range weights {
		weights[i] = back[i*cfg.K : (i+1)*cfg.K : (i+1)*cfg.K]
	}
	workers := cfg.effectiveWorkers(n)

	res := &Result{Centroids: centroids, Weights: weights}
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		updateMemberships(prepared, geo.PrepareAll(cprep, centroids), weights, norm, cfg.M, workers)
		moved := updateCentroids(points, centroids, weights, cfg.M, workers)
		if moved < cfg.Tol {
			break
		}
	}
	// Final membership pass against the converged centroids.
	updateMemberships(prepared, geo.PrepareAll(cprep, centroids), weights, norm, cfg.M, workers)
	return res, nil
}

// minPointsPerWorker gates automatic parallelism: below this many points
// per goroutine the fan-out overhead dominates the arithmetic it saves.
const minPointsPerWorker = 512

// effectiveWorkers resolves Config.Workers against the input size. An
// explicit Workers > 1 is always honored (tests rely on exercising the
// parallel path on small inputs); the automatic setting (Workers == 0)
// backs off to sequential when the input is too small to amortize
// goroutines.
func (cfg Config) effectiveWorkers(n int) int {
	w := cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if limit := n / minPointsPerWorker; w > limit {
			w = limit
		}
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// seedCentroids spreads initial centroids with a k-means++-style farthest-
// point heuristic: the first centroid is a random point, each next one is
// drawn proportionally to squared distance from the closest chosen
// centroid. Good spread at initialization is what lets the final TP cover
// the city (representativity). The closest-centroid distance of every
// point is kept across draws and lowered by the newest centroid only, so
// seeding costs O(n·k) distances, not O(n·k²).
func seedCentroids(points []geo.Point, prepared []geo.Prepared, cfg Config) []geo.Point {
	src := rng.New(cfg.Seed)
	n := len(points)
	centroids := make([]geo.Point, 0, cfg.K)
	first := src.Intn(n)
	centroids = append(centroids, points[first])
	newest := prepared[first]
	dist2 := make([]float64, n)
	for i := range dist2 {
		dist2[i] = math.Inf(1)
	}
	const r2 = geo.EarthRadiusKm * geo.EarthRadiusKm
	for len(centroids) < cfg.K {
		for i, p := range prepared {
			if d := p.SquaredRad(newest) * r2; d < dist2[i] {
				dist2[i] = d
			}
		}
		next := src.WeightedIndex(dist2)
		centroids = append(centroids, points[next])
		newest = prepared[next]
	}
	return centroids
}

// updateMemberships recomputes the FCM memberships. The textbook form
// w_ij = 1 / Σ_l (d_ij/d_il)^(2/(m−1)) costs O(k²) per point; multiplying
// its numerator and denominator by (d_i,min/d_ij)^(2/(m−1)) gives the equal
// closed form
//
//	w_ij = t_ij / Σ_l t_il,   t_ij = (d_i,min² / d_ij²)^(1/(m−1)),
//
// which is O(k) per point and works on squared distances, so no square
// root is taken; for the classic m = 2, t_ij is one division and no
// math.Pow. Scaling by the row's nearest centroid keeps every t in (0,1]
// and the sum in [1,k], so nothing overflows for m near 1. A point
// coinciding with one or more centroids splits its membership crisply
// among them.
//
// The update is row-independent, so with workers > 1 the rows of Weights
// are partitioned into contiguous chunks, one goroutine each. Every row is
// computed by exactly the same arithmetic in the same order as the
// sequential path, so results are bit-identical at any worker count.
func updateMemberships(points, centroids []geo.Prepared, weights [][]float64, norm geo.Normalizer, m float64, workers int) {
	n := len(points)
	if workers <= 1 {
		membershipRows(points, centroids, weights, norm, m, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			membershipRows(points, centroids, weights, norm, m, start, end)
		}(start, end)
	}
	wg.Wait()
}

// membershipRows updates Weights rows [start, end).
func membershipRows(points, centroids []geo.Prepared, weights [][]float64, norm geo.Normalizer, m float64, start, end int) {
	exp := 1 / (m - 1)
	for i := start; i < end; i++ {
		p := points[i]
		// row holds d_ij², then t_ij, then w_ij.
		row := weights[i][:len(centroids)]
		nearest := math.Inf(1)
		for j, c := range centroids {
			d2 := norm.PreparedSquared(p, c)
			row[j] = d2
			if d2 < nearest {
				nearest = d2
			}
		}
		if nearest == 0 {
			crispSplit(row)
			continue
		}
		sum := 0.0
		for j, d2 := range row {
			t := nearest / d2
			if m != 2 {
				t = math.Pow(t, exp)
			}
			row[j] = t
			sum += t
		}
		inv := 1 / sum
		for j, t := range row {
			row[j] = t * inv
		}
	}
}

// crispSplit turns a row of squared distances with at least one zero
// (coincident centroids) into equal memberships on those centroids and
// zero elsewhere.
func crispSplit(row []float64) {
	zeros := 0
	for _, d2 := range row {
		if d2 == 0 {
			zeros++
		}
	}
	u := 1 / float64(zeros)
	for j, d2 := range row {
		if d2 == 0 {
			row[j] = u
		} else {
			row[j] = 0
		}
	}
}

// updateCentroids moves each centroid to the w^m-weighted mean of the
// points (the exact FCM update for squared distances), returning the
// largest movement in km.
//
// One pass over the membership rows, in memory order, accumulates every
// cluster's weighted sums. With workers > 1 the clusters are striped
// across goroutines, each making that pass for its own clusters. Every
// cluster's sums still run over the points in sequential order
// (parallelism is across clusters, never within one accumulation), so
// centroids are bit-identical at any worker count; the move reduction is a
// max, which is order-independent.
func updateCentroids(points []geo.Point, centroids []geo.Point, weights [][]float64, m float64, workers int) float64 {
	k := len(centroids)
	moves := make([]float64, k)
	if workers > k {
		workers = k
	}
	if workers <= 1 {
		centroidSteps(points, centroids, weights, m, moves, 0, 1)
	} else {
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				centroidSteps(points, centroids, weights, m, moves, wk, workers)
			}(wk)
		}
		wg.Wait()
	}
	maxMove := 0.0
	for _, mv := range moves {
		if mv > maxMove {
			maxMove = mv
		}
	}
	return maxMove
}

// centroidSteps recomputes centroids first, first+stride, ... and records
// in moves how far each moved in km (0 for a dead cluster, whose centroid
// stays put). The sums are those of geo.Centroid, in the same order.
func centroidSteps(points []geo.Point, centroids []geo.Point, weights [][]float64, m float64, moves []float64, first, stride int) {
	k := len(centroids)
	type sums struct{ lat, lon, w float64 }
	acc := make([]sums, k)
	for i, p := range points {
		row := weights[i]
		for j := first; j < k; j += stride {
			w := row[j]
			if m == 2 {
				w *= w
			} else {
				w = math.Pow(w, m)
			}
			a := &acc[j]
			a.lat += w * p.Lat
			a.lon += w * p.Lon
			a.w += w
		}
	}
	for j := first; j < k; j += stride {
		a := acc[j]
		if a.w == 0 {
			moves[j] = 0
			continue
		}
		next := geo.Point{Lat: a.lat / a.w, Lon: a.lon / a.w}
		moves[j] = geo.Equirectangular(centroids[j], next)
		centroids[j] = next
	}
}

// Objective evaluates the FCM program being minimized:
// J = Σ_j Σ_i w_ij^m d(i,μ_j)² over normalized distances. Lower is better.
func Objective(points []geo.Point, res *Result, norm geo.Normalizer, m float64) float64 {
	centroids := geo.PrepareAll(nil, res.Centroids)
	total := 0.0
	for i, p := range points {
		pp := geo.Prepare(p)
		for j, c := range centroids {
			total += math.Pow(res.Weights[i][j], m) * norm.PreparedSquared(pp, c)
		}
	}
	return total
}

// Eq1Value evaluates the clustering term exactly as the paper's Eq. 1
// states it — Σ_j Σ_i w_ij^f (1 − d(i,μ_j)) — at the fitted solution, for
// reporting. Higher is better.
func Eq1Value(points []geo.Point, res *Result, norm geo.Normalizer, f float64) float64 {
	centroids := geo.PrepareAll(nil, res.Centroids)
	total := 0.0
	for i, p := range points {
		pp := geo.Prepare(p)
		for j, c := range centroids {
			s := 1 - norm.PreparedDistance(pp, c)
			total += math.Pow(res.Weights[i][j], f) * s
		}
	}
	return total
}

// Spread returns the summed pairwise distance between centroids in km —
// the representativity measure of Eq. 2 applied to a clustering result.
func Spread(res *Result) float64 {
	sum := 0.0
	for i := 0; i < len(res.Centroids); i++ {
		for j := i + 1; j < len(res.Centroids); j++ {
			sum += geo.Equirectangular(res.Centroids[i], res.Centroids[j])
		}
	}
	return sum
}
