// Package ci implements Composite Items (§3.1–3.2): sets of POIs of
// prescribed categories under a budget, and the construction of the best
// valid CI in the vicinity of a fuzzy-clustering centroid — the inner
//
//	max_{CI_j ∈ V} ( β Σ_{i∈CI_j} (1 − d(i, μ_j)) + γ Σ_{i∈CI_j} cos(®i, ®g) )
//
// term of the paper's objective (Eq. 1).
package ci

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"grouptravel/internal/geo"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/vec"
)

// CI is a Composite Item: a set of POIs plus the centroid it was built
// around. Items are ordered by category then descending score, which is
// also a stable presentation order for UIs (Fig. 1 shows CIs as day plans).
type CI struct {
	Items    []*poi.POI
	Centroid geo.Point
}

// Cost returns the total cost of the CI's items (the budget side of the
// §3.1 validity predicate).
func (c *CI) Cost() float64 {
	total := 0.0
	for _, it := range c.Items {
		total += it.Cost
	}
	return total
}

// Center returns the mean coordinate of the CI's items, or the stored
// centroid for an empty CI. Core uses this to re-anchor centroids between
// refinement rounds.
func (c *CI) Center() geo.Point {
	if len(c.Items) == 0 {
		return c.Centroid
	}
	pts := make([]geo.Point, len(c.Items))
	for i, it := range c.Items {
		pts[i] = it.Coord
	}
	return geo.Centroid(pts, nil)
}

// PairwiseDistanceSum returns Σ_{i,j∈CI} d(i,j) over unordered pairs in km
// — the inner sum of the cohesiveness measure (Eq. 3).
func (c *CI) PairwiseDistanceSum() float64 {
	sum := 0.0
	for i := 0; i < len(c.Items); i++ {
		for j := i + 1; j < len(c.Items); j++ {
			sum += geo.Equirectangular(c.Items[i].Coord, c.Items[j].Coord)
		}
	}
	return sum
}

// Contains reports whether the CI holds the POI with the given id.
func (c *CI) Contains(id int) bool {
	for _, it := range c.Items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// Clone returns a shallow copy of the CI (POIs are shared, immutable data).
func (c *CI) Clone() *CI {
	items := make([]*poi.POI, len(c.Items))
	copy(items, c.Items)
	return &CI{Items: items, Centroid: c.Centroid}
}

// Builder constructs the best valid CI near a centroid. One Builder is
// reusable across centroids and refinement rounds.
//
// A Builder is an immutable configuration: none of its exported fields are
// written after construction, and every Build call keeps its working state
// (the per-category rankings, the current selection, the budget-repair
// bookkeeping) in a per-call buildState. The one derived value, the
// personalization table, is computed once on first use under a sync.Once.
// One Builder therefore serves any number of goroutines concurrently,
// provided the caller does not mutate its fields or the exclude sets it
// passes once builds have started — core.Engine relies on this to
// construct a package's CIs in parallel.
type Builder struct {
	Coll  *poi.Collection
	Query query.Query
	// Group is the group profile ®g; nil builds non-personalized CIs
	// (equivalent to γ = 0).
	Group *profile.Profile
	// Beta and Gamma weigh centroid proximity and personalization in the
	// per-item score β(1−d(i,μ)) + γ·cos(®i, ®g) (Eq. 1).
	Beta  float64
	Gamma float64
	// Norm converts km distances to the normalized [0,1] distances of
	// Eq. 1; use Coll.Normalizer() unless experimenting.
	Norm geo.Normalizer

	// affinity[cat][i] is cos(®i, ®g) for the i-th POI of
	// Coll.ByCategory(cat), for the categories the query requests. It
	// depends only on the item and the group, so one table serves every
	// centroid and refinement round a package's builds rank.
	affinityOnce sync.Once
	affinity     [poi.NumCategories][]float64
}

// Validate checks the builder configuration.
func (b *Builder) Validate() error {
	if b.Coll == nil {
		return fmt.Errorf("ci: nil collection")
	}
	if err := b.Query.Validate(); err != nil {
		return err
	}
	if b.Beta < 0 || b.Gamma < 0 {
		return fmt.Errorf("ci: negative objective weights (beta=%v gamma=%v)", b.Beta, b.Gamma)
	}
	return b.Query.Feasible(b.Coll)
}

// Score returns the per-item objective contribution for an item relative
// to centroid mu: β(1−d(i,μ)) + γ·cos(®i, ®g_cat). It is the score Build
// ranks by, bit for bit.
func (b *Builder) Score(it *poi.POI, mu geo.Point) float64 {
	s := b.Beta * (1 - b.Norm.PreparedDistance(geo.Prepare(it.Coord), geo.Prepare(mu)))
	if b.personalized() {
		s += b.Gamma * vec.Cosine(it.Vector, b.Group.Vector(it.Cat))
	}
	return s
}

func (b *Builder) personalized() bool { return b.Group != nil && b.Gamma > 0 }

// affinities returns the personalization table, filling it on first use,
// or nil for a non-personalized builder. vec.CosineNormB with the group
// vector's norm hoisted per category is bit-identical to the vec.Cosine
// in Score.
func (b *Builder) affinities() *[poi.NumCategories][]float64 {
	if !b.personalized() {
		return nil
	}
	b.affinityOnce.Do(func() {
		for _, cat := range poi.Categories {
			if b.Query.Counts[cat] == 0 {
				continue
			}
			gv := b.Group.Vector(cat)
			gn := gv.Norm()
			cands := b.Coll.ByCategory(cat)
			row := make([]float64, len(cands))
			for i, it := range cands {
				row[i] = vec.CosineNormB(it.Vector, gv, gn)
			}
			b.affinity[cat] = row
		}
	})
	return &b.affinity
}

// scored pairs a candidate with its score for one centroid.
type scored struct {
	item  *poi.POI
	score float64
}

// buildState is the per-call scratch of one Build: candidate rankings, the
// current selection and the budget-repair bookkeeping. Keeping all mutable
// state here (never on the Builder) is what makes one Builder safe to share
// across goroutines.
type buildState struct {
	b        *Builder
	perCat   [poi.NumCategories][]scored
	selected []scored
	selIdx   map[int]int // POI id -> index in its category ranking
}

// statePool recycles buildStates across Build calls. The per-category
// rankings dominated the build path's allocations (a fresh slice per
// category per centroid per refinement round); reusing the backing arrays
// makes steady-state builds allocation-free outside the returned CI.
var statePool = sync.Pool{New: func() any { return new(buildState) }}

func getBuildState(b *Builder) *buildState {
	st := statePool.Get().(*buildState)
	st.b = b
	for i := range st.perCat {
		st.perCat[i] = st.perCat[i][:0]
	}
	st.selected = st.selected[:0]
	if st.selIdx == nil {
		st.selIdx = make(map[int]int)
	} else {
		clear(st.selIdx)
	}
	return st
}

func putBuildState(st *buildState) {
	st.b = nil
	for i := range st.perCat {
		// Drop POI pointers so a pooled state does not pin a collection.
		s := st.perCat[i]
		for j := range s {
			s[j] = scored{}
		}
		st.perCat[i] = s[:0]
	}
	for j := range st.selected {
		st.selected[j] = scored{}
	}
	st.selected = st.selected[:0]
	statePool.Put(st)
}

// Build constructs the best valid CI around mu. exclude (may be nil) lists
// POI ids that must not be used — the REMOVE customization operator and
// "generate a new CI avoiding current items" both need it.
//
// Algorithm: per category, rank candidates by score and take the top
// #c_j; if the budget is exceeded, run a swap-repair local search that
// replaces expensive picks with cheaper candidates at minimal score loss.
// Returns an error if no valid CI exists (infeasible counts or budget).
//
// Build is safe to call from multiple goroutines on one Builder; all
// working state lives in a per-call buildState.
func (b *Builder) Build(mu geo.Point, exclude map[int]bool) (*CI, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	st := getBuildState(b)
	defer putBuildState(st)
	if err := st.rank(mu, exclude); err != nil {
		return nil, err
	}
	st.selectTop()
	if !b.Query.Unbounded() {
		if err := st.repairBudget(); err != nil {
			return nil, err
		}
	}
	items := make([]*poi.POI, len(st.selected))
	for i, s := range st.selected {
		items[i] = s.item
	}
	out := &CI{Items: items, Centroid: mu}
	if err := b.Query.CheckCI(out.Items); err != nil {
		return nil, fmt.Errorf("ci: construction produced invalid CI: %w", err)
	}
	return out, nil
}

// rank scores and orders the candidates of every requested category.
//
// The scoring loop is the hottest code in a build. Candidates come with
// prepared coordinates from the collection and personalization from the
// builder's affinity table, so one score is a few multiplies and a square
// root. The ranking is a strict total order (score descending, POI id
// ascending). With an unbounded budget selectTop reads only the first
// want entries of each category, so rank keeps just those, by insertion
// into a want-long list — under a strict order that is exactly the full
// sort's prefix. A bounded budget keeps and sorts the whole ranking,
// because repairBudget scans all of it.
func (st *buildState) rank(mu geo.Point, exclude map[int]bool) error {
	b := st.b
	center := geo.Prepare(mu)
	affinity := b.affinities()
	topOnly := b.Query.Unbounded()
	for _, cat := range poi.Categories {
		want := b.Query.Counts[cat]
		if want == 0 {
			continue
		}
		cands := b.Coll.ByCategory(cat)
		coords := b.Coll.PreparedByCategory(cat)
		var cos []float64
		if affinity != nil {
			cos = affinity[cat]
		}
		size := len(cands)
		if topOnly {
			size = want
		}
		list := st.perCat[cat][:0]
		if cap(list) < size {
			list = make([]scored, 0, size)
		}
		avail := 0
		for i, it := range cands {
			if exclude != nil && exclude[it.ID] {
				continue
			}
			avail++
			// The arithmetic of Builder.Score.
			s := b.Beta * (1 - b.Norm.PreparedDistance(coords[i], center))
			if cos != nil {
				s += b.Gamma * cos[i]
			}
			if topOnly {
				list = pushTop(list, scored{it, s}, want)
			} else {
				list = append(list, scored{it, s})
			}
		}
		st.perCat[cat] = list
		if avail < want {
			return fmt.Errorf("ci: only %d available %s POIs, query wants %d",
				avail, cat, want)
		}
		if !topOnly {
			slices.SortFunc(list, compareRank)
		}
	}
	return nil
}

// ranksBefore is the ranking's strict total order: higher score first,
// then lower POI id.
func ranksBefore(a, b scored) bool {
	return a.score > b.score || a.score == b.score && a.item.ID < b.item.ID
}

func compareRank(a, b scored) int {
	switch {
	case ranksBefore(a, b):
		return -1
	case ranksBefore(b, a):
		return 1
	}
	return 0
}

// pushTop offers c to list, which holds the best candidates seen so far
// in rank order, and keeps at most want of them.
func pushTop(list []scored, c scored, want int) []scored {
	n := len(list)
	if n < want {
		list = append(list, c)
	} else if ranksBefore(c, list[n-1]) {
		n-- // c displaces the current last
	} else {
		return list
	}
	for n > 0 && ranksBefore(c, list[n-1]) {
		list[n] = list[n-1]
		n--
	}
	list[n] = c
	return list
}

// selectTop takes the greedy top-k of each category's ranking.
func (st *buildState) selectTop() {
	b := st.b
	if need := b.Query.Size(); cap(st.selected) < need {
		st.selected = make([]scored, 0, need)
	}
	for _, cat := range poi.Categories {
		for i := 0; i < b.Query.Counts[cat]; i++ {
			s := st.perCat[cat][i]
			st.selected = append(st.selected, s)
			st.selIdx[s.item.ID] = i
		}
	}
}

// repairBudget swaps selected items for cheaper same-category candidates
// until the budget holds, minimizing score loss per unit of cost saved.
func (st *buildState) repairBudget() error {
	b := st.b
	cost := 0.0
	for _, s := range st.selected {
		cost += s.item.Cost
	}
	for cost > b.Query.Budget {
		bestSel, bestCand := -1, -1
		bestRatio := 0.0
		for si, s := range st.selected {
			cat := s.item.Cat
			for ci, cand := range st.perCat[cat] {
				if _, taken := st.selIdx[cand.item.ID]; taken {
					continue
				}
				saving := s.item.Cost - cand.item.Cost
				if saving <= 0 {
					continue
				}
				loss := s.score - cand.score // >= 0: candidates rank below
				ratio := loss / saving
				if bestSel == -1 || ratio < bestRatio {
					bestSel, bestCand, bestRatio = si, ci, ratio
				}
			}
		}
		if bestSel == -1 {
			return fmt.Errorf("ci: no valid CI within budget %.3f (cheapest selection costs %.3f)",
				b.Query.Budget, st.cheapestCost())
		}
		old := st.selected[bestSel]
		neu := st.perCat[old.item.Cat][bestCand]
		delete(st.selIdx, old.item.ID)
		st.selIdx[neu.item.ID] = bestCand
		cost += neu.item.Cost - old.item.Cost
		st.selected[bestSel] = neu
	}
	return nil
}

// cheapestCost returns the minimum achievable CI cost — used only for the
// infeasibility error message.
func (st *buildState) cheapestCost() float64 {
	b := st.b
	total := 0.0
	for _, cat := range poi.Categories {
		want := b.Query.Counts[cat]
		if want == 0 {
			continue
		}
		costs := make([]float64, len(st.perCat[cat]))
		for i, s := range st.perCat[cat] {
			costs[i] = s.item.Cost
		}
		sort.Float64s(costs)
		for i := 0; i < want && i < len(costs); i++ {
			total += costs[i]
		}
	}
	return total
}

// ObjectiveValue returns the CI's contribution to the second line of Eq. 1:
// β Σ (1−d(i,μ)) + γ Σ cos(®i, ®g), using the builder's weights.
func (b *Builder) ObjectiveValue(c *CI) float64 {
	total := 0.0
	for _, it := range c.Items {
		total += b.Score(it, c.Centroid)
	}
	return total
}
