package fuzzy

import (
	"math"
	"testing"

	"grouptravel/internal/geo"
	"grouptravel/internal/rng"
)

// The reference below is the textbook FCM as this package first
// implemented it: degree-coordinate distances with a math.Cos per pair,
// the O(n·k²) membership form w_ij = 1 / Σ_l (d_ij/d_il)^(2/(m−1)), and
// O(n·k²) seeding. Cluster must agree with it to rounding.

// refDistances fills d[j] with the scalar normalized distance to each
// centroid.
func refDistances(d []float64, p geo.Point, centroids []geo.Point, norm geo.Normalizer) {
	for j, c := range centroids {
		d[j] = norm.Distance(p, c)
	}
}

// refMemberships is the O(k²)-per-row membership update.
func refMemberships(points, centroids []geo.Point, weights [][]float64, norm geo.Normalizer, m float64) {
	k := len(centroids)
	power := 2 / (m - 1)
	d := make([]float64, k)
	for i, p := range points {
		row := weights[i]
		refDistances(d, p, centroids, norm)
		zeros := 0
		for _, v := range d {
			if v == 0 {
				zeros++
			}
		}
		if zeros > 0 {
			for j := range row {
				row[j] = 0
				if d[j] == 0 {
					row[j] = 1 / float64(zeros)
				}
			}
			continue
		}
		for j := range row {
			sum := 0.0
			for l := 0; l < k; l++ {
				if power == 2 {
					r := d[j] / d[l]
					sum += r * r
				} else {
					sum += math.Pow(d[j]/d[l], power)
				}
			}
			row[j] = 1 / sum
		}
	}
}

// refSeed is the O(n·k²) farthest-point seeding.
func refSeed(points []geo.Point, cfg Config) []geo.Point {
	src := rng.New(cfg.Seed)
	n := len(points)
	centroids := []geo.Point{points[src.Intn(n)]}
	dist2 := make([]float64, n)
	for len(centroids) < cfg.K {
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := geo.Equirectangular(p, c); d < best {
					best = d
				}
			}
			dist2[i] = best * best
		}
		centroids = append(centroids, points[src.WeightedIndex(dist2)])
	}
	return centroids
}

// refCentroidStep is the column-at-a-time centroid update: centroid j
// moves to geo.Centroid of the points under w^m weights.
func refCentroidStep(points []geo.Point, centroids []geo.Point, weights [][]float64, m float64, w []float64, j int) float64 {
	total := 0.0
	for i := range points {
		if m == 2 {
			w[i] = weights[i][j] * weights[i][j]
		} else {
			w[i] = math.Pow(weights[i][j], m)
		}
		total += w[i]
	}
	if total == 0 {
		return 0
	}
	next := geo.Centroid(points, w)
	d := geo.Equirectangular(centroids[j], next)
	centroids[j] = next
	return d
}

func refCluster(points []geo.Point, norm geo.Normalizer, cfg Config) *Result {
	n := len(points)
	centroids := refSeed(points, cfg)
	weights := make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, cfg.K)
	}
	res := &Result{Centroids: centroids, Weights: weights}
	w := make([]float64, n)
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		refMemberships(points, centroids, weights, norm, cfg.M)
		moved := 0.0
		for j := range centroids {
			moved = math.Max(moved, refCentroidStep(points, centroids, weights, cfg.M, w, j))
		}
		if moved < cfg.Tol {
			break
		}
	}
	refMemberships(points, centroids, weights, norm, cfg.M)
	return res
}

// neighborhoods scatters n points over nine Gaussian neighborhoods of a
// 12 km city, the shape of the generated datasets.
func neighborhoods(n int, seed int64) []geo.Point {
	src := rng.New(seed)
	centers := make([]geo.Point, 9)
	for i := range centers {
		centers[i] = geo.Point{Lat: src.Range(48.81, 48.91), Lon: src.Range(2.27, 2.41)}
	}
	pts := make([]geo.Point, n)
	for i := range pts {
		c := centers[src.Intn(len(centers))]
		pts[i] = geo.Point{Lat: c.Lat + 0.008*src.NormFloat64(), Lon: c.Lon + 0.012*src.NormFloat64()}
	}
	return pts
}

func checkRowsSumToOne(t *testing.T, label string, weights [][]float64) {
	t.Helper()
	for i, row := range weights {
		sum := 0.0
		for _, w := range row {
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s: row %d sums to 1%+.3g", label, i, sum-1)
		}
	}
}

// TestMembershipsMatchReference pins the closed form against the O(k²)
// form for fixed centroids, including rows that coincide with one or two
// centroids (the crisp split).
func TestMembershipsMatchReference(t *testing.T) {
	pts := clusterPoints(1000, 21)
	norm := geo.NormalizerFor(pts)
	prepared := geo.PrepareAll(nil, pts)
	src := rng.New(22)
	for _, m := range []float64{1.5, 2, 3} {
		for k := 3; k <= 10; k++ {
			centroids := make([]geo.Point, k)
			for j := range centroids {
				centroids[j] = pts[src.Intn(len(pts))]
			}
			centroids[k-1] = centroids[0] // a doubly coincident point
			got := make([][]float64, len(pts))
			want := make([][]float64, len(pts))
			for i := range pts {
				got[i], want[i] = make([]float64, k), make([]float64, k)
			}
			updateMemberships(prepared, geo.PrepareAll(nil, centroids), got, norm, m, 1)
			refMemberships(pts, centroids, want, norm, m)
			for i := range want {
				for j := range want[i] {
					if d := math.Abs(got[i][j] - want[i][j]); d > 1e-12 {
						t.Fatalf("m=%v k=%d: w[%d][%d] = %v, reference %v (|Δ| %.3g)",
							m, k, i, j, got[i][j], want[i][j], d)
					}
				}
			}
			checkRowsSumToOne(t, "closed form", got)
		}
	}
}

// TestClusterMatchesReference runs whole clusterings both ways: the same
// iteration count, centroids within 1e-9 km, and returned memberships
// within 1e-12 of the reference update at the returned centroids.
func TestClusterMatchesReference(t *testing.T) {
	pts := neighborhoods(1000, 23)
	norm := geo.NormalizerFor(pts)
	for _, m := range []float64{1.5, 2, 3} {
		for k := 3; k <= 10; k++ {
			cfg := DefaultConfig(k)
			cfg.M = m
			cfg.Seed = int64(k)
			cfg.MaxIters = 30 // half the default keeps the race build quick
			got, err := Cluster(pts, norm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refCluster(pts, norm, cfg)
			if got.Iterations != want.Iterations {
				t.Fatalf("m=%v k=%d: %d iterations, reference %d", m, k, got.Iterations, want.Iterations)
			}
			for j := range want.Centroids {
				if d := geo.Equirectangular(got.Centroids[j], want.Centroids[j]); d > 1e-9 {
					t.Fatalf("m=%v k=%d: centroid %d is %.3g km from the reference", m, k, j, d)
				}
			}
			// Memberships inherit the centroids' rounding drift over the
			// iterations, so they are held to 1e-12 against the reference
			// update at the returned centroids.
			ref := make([][]float64, len(pts))
			for i := range ref {
				ref[i] = make([]float64, k)
			}
			refMemberships(pts, got.Centroids, ref, norm, m)
			for i := range ref {
				for j := range ref[i] {
					if d := math.Abs(got.Weights[i][j] - ref[i][j]); d > 1e-12 {
						t.Fatalf("m=%v k=%d: w[%d][%d] off the reference by %.3g", m, k, i, j, d)
					}
				}
			}
			checkRowsSumToOne(t, "cluster", got.Weights)
		}
	}
}

// TestCentroidUpdateMatchesReference pins the row-major centroid update
// to the column-at-a-time one bit for bit, at any worker count and with a
// dead cluster (an all-zero membership column) that must stay put.
func TestCentroidUpdateMatchesReference(t *testing.T) {
	pts := clusterPoints(500, 24)
	src := rng.New(25)
	for _, m := range []float64{2, 1.7} {
		const k = 6
		weights := make([][]float64, len(pts))
		for i := range weights {
			weights[i] = make([]float64, k)
			for j := 0; j < k-1; j++ {
				weights[i][j] = src.Float64()
			}
		}
		start := make([]geo.Point, k)
		for j := range start {
			start[j] = pts[j]
		}
		want := append([]geo.Point(nil), start...)
		w := make([]float64, len(pts))
		wantMove := 0.0
		for j := range want {
			wantMove = math.Max(wantMove, refCentroidStep(pts, want, weights, m, w, j))
		}
		for _, workers := range []int{1, 3} {
			got := append([]geo.Point(nil), start...)
			if move := updateCentroids(pts, got, weights, m, workers); move != wantMove {
				t.Fatalf("m=%v workers=%d: max move %v, reference %v", m, workers, move, wantMove)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("m=%v workers=%d: centroid %d = %v, reference %v", m, workers, j, got[j], want[j])
				}
			}
			if got[k-1] != start[k-1] {
				t.Fatalf("dead cluster moved")
			}
		}
	}
}
