// Package geo implements the geographic substrate of GroupTravel:
// points, distance functions, bounding rectangles and a grid index.
//
// The paper (§3.2) measures distances between POIs with "an approximation of
// Haversine calculations on a spherical space ... with Equirectangular
// calculations on a Euclidean space to gain performance", reporting a 30x
// speedup at 0.1% precision loss for intra-city distances. Both functions
// are implemented here so the claim can be benchmarked
// (BenchmarkHaversine / BenchmarkEquirectangular in the repository root).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used by both distance functions.
const EarthRadiusKm = 6371.0088

// Point is a geographic coordinate in degrees, matching the
// ⟨latitude, longitude⟩ pairs of the TourPedia POIs (Table 1 of the paper).
type Point struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180]
}

// String renders the point like the paper's Table 1 ("⟨48.8679, 2.3256⟩").
func (p Point) String() string {
	return fmt.Sprintf("(%.4f, %.4f)", p.Lat, p.Lon)
}

// Valid reports whether the point is within the legal coordinate ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }

// Haversine returns the great-circle distance between two points in km.
// This is the exact spherical formula the paper approximates.
func Haversine(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat := la2 - la1
	dLon := lo2 - lo1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(la1)*math.Cos(la2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Equirectangular returns the equirectangular-projection approximation of
// the distance between two points in km. For short distances (within a
// city) it agrees with Haversine to well under 0.1% while avoiding most of
// the trigonometry (§3.2 of the paper).
func Equirectangular(a, b Point) float64 {
	la1, lo1 := deg2rad(a.Lat), deg2rad(a.Lon)
	la2, lo2 := deg2rad(b.Lat), deg2rad(b.Lon)
	x := (lo2 - lo1) * math.Cos((la1+la2)/2)
	y := la2 - la1
	return EarthRadiusKm * math.Sqrt(x*x+y*y)
}

// DistanceFunc measures the distance in km between two points.
type DistanceFunc func(a, b Point) float64

// Midpoint returns the coordinate-wise midpoint of two points. For in-city
// distances the flat-earth midpoint is indistinguishable from the spherical
// one.
func Midpoint(a, b Point) Point {
	return Point{Lat: (a.Lat + b.Lat) / 2, Lon: (a.Lon + b.Lon) / 2}
}

// Centroid returns the coordinate-wise mean of the points, optionally
// weighted. If weights is nil, all points weigh equally. It panics if
// points is empty or lengths mismatch.
func Centroid(points []Point, weights []float64) Point {
	if len(points) == 0 {
		panic("geo: Centroid of empty point set")
	}
	if weights != nil && len(weights) != len(points) {
		panic("geo: Centroid weights length mismatch")
	}
	var lat, lon, wsum float64
	for i, p := range points {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		lat += w * p.Lat
		lon += w * p.Lon
		wsum += w
	}
	if wsum == 0 {
		// All-zero weights: fall back to the unweighted mean.
		return Centroid(points, nil)
	}
	return Point{Lat: lat / wsum, Lon: lon / wsum}
}

// WeberPoint computes the weighted geometric median of the points using
// Weiszfeld iterations, seeded at the weighted centroid. The paper's
// centroid update (Eq. 1 maximizes Σ w(1−‖x−μ‖/Dmax)) is a Weber problem;
// the classic FCM weighted mean is only its squared-distance cousin.
func WeberPoint(points []Point, weights []float64, iters int) Point {
	mu := Centroid(points, weights)
	const eps = 1e-9
	for it := 0; it < iters; it++ {
		var num Point
		var den float64
		for i, p := range points {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			d := Equirectangular(mu, p)
			if d < eps {
				d = eps
			}
			c := w / d
			num.Lat += c * p.Lat
			num.Lon += c * p.Lon
			den += c
		}
		if den == 0 {
			return mu
		}
		next := Point{Lat: num.Lat / den, Lon: num.Lon / den}
		if Equirectangular(mu, next) < 1e-7 {
			return next
		}
		mu = next
	}
	return mu
}

// Rect is an axis-aligned geographic rectangle identified, as in the
// paper's GENERATE(RECTANGLE(x, y, w, h)) operator (§3.3), by its
// upper-left corner (max latitude, min longitude) plus width (degrees of
// longitude) and height (degrees of latitude).
type Rect struct {
	Lat    float64 // upper edge (northernmost latitude)
	Lon    float64 // left edge (westernmost longitude)
	Width  float64 // extent east, degrees
	Height float64 // extent south, degrees
}

// NewRect builds a Rect from an upper-left corner and extents. Width and
// height must be non-negative.
func NewRect(upperLeft Point, width, height float64) (Rect, error) {
	if width < 0 || height < 0 {
		return Rect{}, fmt.Errorf("geo: negative rectangle extent (w=%v h=%v)", width, height)
	}
	return Rect{Lat: upperLeft.Lat, Lon: upperLeft.Lon, Width: width, Height: height}, nil
}

// BoundingRect returns the minimal Rect covering all points.
// It panics on an empty slice.
func BoundingRect(points []Point) Rect {
	if len(points) == 0 {
		panic("geo: BoundingRect of empty point set")
	}
	minLat, maxLat := points[0].Lat, points[0].Lat
	minLon, maxLon := points[0].Lon, points[0].Lon
	for _, p := range points[1:] {
		minLat = math.Min(minLat, p.Lat)
		maxLat = math.Max(maxLat, p.Lat)
		minLon = math.Min(minLon, p.Lon)
		maxLon = math.Max(maxLon, p.Lon)
	}
	return Rect{Lat: maxLat, Lon: minLon, Width: maxLon - minLon, Height: maxLat - minLat}
}

// Contains reports whether p lies inside the rectangle (inclusive edges).
func (r Rect) Contains(p Point) bool {
	return p.Lat <= r.Lat && p.Lat >= r.Lat-r.Height &&
		p.Lon >= r.Lon && p.Lon <= r.Lon+r.Width
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{Lat: r.Lat - r.Height/2, Lon: r.Lon + r.Width/2}
}

// Diagonal returns the rectangle's diagonal length in km
// (equirectangular), a convenient scale for normalizing in-rectangle
// distances.
func (r Rect) Diagonal() float64 {
	ul := Point{Lat: r.Lat, Lon: r.Lon}
	lr := Point{Lat: r.Lat - r.Height, Lon: r.Lon + r.Width}
	return Equirectangular(ul, lr)
}

// MaxPairwiseDistance returns the largest equirectangular distance between
// any two points. The paper divides all distances by this value to obtain
// the normalized Euclidean distance of Eq. 1. O(n²); use
// ApproxMaxPairwiseDistance for large n.
func MaxPairwiseDistance(points []Point) float64 {
	max := 0.0
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			if d := Equirectangular(points[i], points[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// ApproxMaxPairwiseDistance returns the diagonal of the bounding rectangle,
// an upper bound within √2 of the true maximum, in O(n).
func ApproxMaxPairwiseDistance(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	return BoundingRect(points).Diagonal()
}

// Prepared is a point readied for repeated equirectangular distance
// evaluations: its coordinates in radians plus the sine and cosine of half
// its latitude. The equirectangular x-term needs cos((φ1+φ2)/2), which the
// angle-addition identity turns into cos(φ1/2)cos(φ2/2) − sin(φ1/2)sin(φ2/2):
// two products per pair instead of four degree→radian conversions and a
// math.Cos. Prepare a point once and measure it against many partners —
// FCM points against centroids, a city's POIs against CI centres.
//
// Prepared distances agree with Equirectangular to the last few ulps; they
// are not bit-identical to it.
type Prepared struct {
	lat, lon         float64 // radians
	sinHalf, cosHalf float64 // sin(lat/2), cos(lat/2)
}

// Prepare converts a point for the prepared distance kernel.
func Prepare(p Point) Prepared {
	lat := deg2rad(p.Lat)
	s, c := math.Sincos(lat / 2)
	return Prepared{lat: lat, lon: deg2rad(p.Lon), sinHalf: s, cosHalf: c}
}

// PrepareAll prepares every point into dst, reallocating it only when its
// capacity is short, and returns the len(points)-long result aligned with
// points.
func PrepareAll(dst []Prepared, points []Point) []Prepared {
	if cap(dst) < len(points) {
		dst = make([]Prepared, len(points))
	}
	dst = dst[:len(points)]
	for i, p := range points {
		dst[i] = Prepare(p)
	}
	return dst
}

// SquaredRad returns the squared equirectangular distance between a and b
// in radians²; multiply by EarthRadiusKm² for km². It is symmetric bit for
// bit.
func (a Prepared) SquaredRad(b Prepared) float64 {
	x := (b.lon - a.lon) * (a.cosHalf*b.cosHalf - a.sinHalf*b.sinHalf)
	y := b.lat - a.lat
	return x*x + y*y
}

// Normalizer rescales raw km distances into [0,1] by a fixed maximum, as
// required by the normalized Euclidean distance of Eq. 1.
type Normalizer struct {
	max    float64
	scale  float64 // EarthRadiusKm / max: radians to normalized units
	scale2 float64 // scale², for squared distances
}

// NewNormalizer creates a Normalizer for the given maximum distance. A
// non-positive max yields a normalizer that maps everything to 0 (all
// points coincide).
func NewNormalizer(maxDistance float64) Normalizer {
	n := Normalizer{max: maxDistance}
	if maxDistance > 0 {
		n.scale = EarthRadiusKm / maxDistance
		n.scale2 = n.scale * n.scale
	}
	return n
}

// NormalizerFor derives a Normalizer from a point set using the bounding
// rectangle diagonal.
func NormalizerFor(points []Point) Normalizer {
	return NewNormalizer(ApproxMaxPairwiseDistance(points))
}

// Distance returns the normalized equirectangular distance in [0,1]
// (values beyond the configured max clamp to 1).
func (n Normalizer) Distance(a, b Point) float64 {
	if n.max <= 0 {
		return 0
	}
	d := Equirectangular(a, b) / n.max
	if d > 1 {
		return 1
	}
	return d
}

// PreparedDistance is Distance on prepared points: the normalized
// equirectangular distance in [0,1], clamped like Distance.
func (n Normalizer) PreparedDistance(a, b Prepared) float64 {
	d := math.Sqrt(a.SquaredRad(b)) * n.scale
	if d > 1 {
		return 1
	}
	return d
}

// PreparedSquared returns the squared normalized distance between prepared
// points, clamped to [0,1] — PreparedDistance² without the square root.
func (n Normalizer) PreparedSquared(a, b Prepared) float64 {
	d2 := a.SquaredRad(b) * n.scale2
	if d2 > 1 {
		return 1
	}
	return d2
}

// Max returns the normalization constant in km.
func (n Normalizer) Max() float64 { return n.max }
