package ci

import (
	"math"
	"slices"
	"testing"

	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
	"grouptravel/internal/vec"
)

// TestPushTopIsSortPrefix checks top-k selection against the full sort on
// lists dense with exact score ties, which only the POI id can break.
func TestPushTopIsSortPrefix(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(40)
		all := make([]scored, n)
		for i, id := range src.Perm(n) {
			all[i] = scored{item: &poi.POI{ID: id}, score: float64(src.Intn(4)) / 4}
		}
		sorted := slices.Clone(all)
		slices.SortFunc(sorted, compareRank)
		for want := 1; want <= n; want++ {
			var top []scored
			for _, c := range all {
				top = pushTop(top, c, want)
			}
			if !slices.Equal(top, sorted[:want]) {
				t.Fatalf("trial %d want %d: top-k %v, sort prefix %v", trial, want, ids(top), ids(sorted[:want]))
			}
		}
	}
}

func ids(list []scored) []int {
	out := make([]int, len(list))
	for i, s := range list {
		out[i] = s.item.ID
	}
	return out
}

// tiedCollection builds a city whose POIs sit on four shared spots with
// two shared item vectors per category, so scores tie exactly in groups.
// Ids run against insertion order, so a tie broken by position in the
// collection instead of by id would show.
func tiedCollection(t *testing.T) *poi.Collection {
	t.Helper()
	labels := []string{"a", "b"}
	schema := poi.NewSchema(labels, labels, labels, labels)
	spots := []geo.Point{{Lat: 48.85, Lon: 2.34}, {Lat: 48.86, Lon: 2.35}, {Lat: 48.87, Lon: 2.33}, {Lat: 48.84, Lon: 2.36}}
	vectors := []vec.Vector{{1, 0}, {0.5, 0.5}}
	var pois []*poi.POI
	id := 1000
	for _, cat := range poi.Categories {
		for i := 0; i < 24; i++ {
			pois = append(pois, &poi.POI{
				ID: id, Name: "p", Cat: cat, Coord: spots[i%len(spots)],
				Vector: vectors[i%len(vectors)], Cost: float64(1 + i%3),
			})
			id--
		}
	}
	coll, err := poi.NewCollection(schema, pois)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// TestTopKBuildMatchesFullSort builds the same CIs through the top-k path
// (unbounded budget) and the full-sort path (a budget too large to bind):
// the items, and their order, must be identical — on exact ties too.
func TestTopKBuildMatchesFullSort(t *testing.T) {
	tied := tiedCollection(t)
	city := testCity(t)
	newBuilder := func(coll *poi.Collection) *Builder {
		return &Builder{Coll: coll, Beta: 1, Gamma: 1, Norm: coll.Normalizer()}
	}
	cases := []struct {
		name string
		coll *poi.Collection
	}{{"tied", tied}, {"city", city.POIs}}
	src := rng.New(5)
	for _, tc := range cases {
		grp := profile.GenerateRandomProfile(tc.coll.Schema(), src)
		for trial := 0; trial < 40; trial++ {
			counts := [poi.NumCategories]int{src.Intn(3), src.Intn(3), 1 + src.Intn(3), src.Intn(4)}
			top := newBuilder(tc.coll)
			top.Query = query.MustNew(counts[0], counts[1], counts[2], counts[3], math.Inf(1))
			full := newBuilder(tc.coll)
			full.Query = query.MustNew(counts[0], counts[1], counts[2], counts[3], math.MaxFloat64)
			if trial%2 == 0 {
				top.Group, full.Group = grp, grp
			}
			all := tc.coll.All()
			mu := all[src.Intn(len(all))].Coord
			a, err := top.Build(mu, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := full.Build(mu, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a.Items, b.Items) {
				t.Fatalf("%s trial %d: top-k picked %v, full sort %v", tc.name, trial, itemIDs(a), itemIDs(b))
			}
		}
	}
	// Spot 0 holds acco ids 1000, 996, ..., 980: the tie goes to 980.
	b := newBuilder(tied)
	b.Query = query.MustNew(1, 0, 0, 0, math.Inf(1))
	c, err := b.Build(geo.Point{Lat: 48.85, Lon: 2.34}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Items[0].ID; got != 1000-20 {
		t.Fatalf("tie broken to id %d, want the lowest tied id %d", got, 1000-20)
	}
}

func itemIDs(c *CI) []int {
	out := make([]int, len(c.Items))
	for i, it := range c.Items {
		out[i] = it.ID
	}
	return out
}

// TestBoundedBuildRepairsOverFullRanking pins that a bounded budget still
// ranks every candidate: the repair must be able to swap in items ranked
// below the first #c of their category, which a top-k ranking would not
// hold.
func TestBoundedBuildRepairsOverFullRanking(t *testing.T) {
	city := testCity(t)
	mu := dataset.BuiltinCenters["Paris"]
	greedy, err := builderFor(t, city, query.Default(), nil, 1, 0).Build(mu, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustNew(1, 1, 1, 3, greedy.Cost()*0.6)
	b := builderFor(t, city, q, nil, 1, 0)
	repaired, err := b.Build(mu, nil)
	if err != nil {
		t.Fatalf("budget repair failed: %v", err)
	}
	if repaired.Cost() > q.Budget {
		t.Fatalf("repaired CI costs %v over budget %v", repaired.Cost(), q.Budget)
	}
	deep := 0
	for _, it := range repaired.Items {
		// it's position in its category's full ranking.
		pos := 0
		s := b.Score(it, mu)
		for _, o := range city.POIs.ByCategory(it.Cat) {
			if so := b.Score(o, mu); so > s || so == s && o.ID < it.ID {
				pos++
			}
		}
		if pos >= q.Counts[it.Cat] {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("repair used only top-ranked items; the budget did not bind")
	}
}
