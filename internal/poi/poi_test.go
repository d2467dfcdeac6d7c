package poi

import (
	"sync"
	"testing"

	"grouptravel/internal/geo"
	"grouptravel/internal/tags"
	"grouptravel/internal/vec"
)

func testSchema() *Schema {
	return NewSchema(
		tags.AccommodationTypes,
		tags.TransportationTypes,
		[]string{"topic0", "topic1", "topic2"},
		[]string{"topic0", "topic1"},
	)
}

func mkPOI(id int, cat Category, lat, lon float64, s *Schema) *POI {
	p := &POI{
		ID:    id,
		Name:  "poi",
		Cat:   cat,
		Coord: geo.Point{Lat: lat, Lon: lon},
		Cost:  1,
	}
	switch cat {
	case Acco:
		p.Type = "hotel"
		p.Vector = s.OneHot(Acco, "hotel")
	case Trans:
		p.Type = "tramstation"
		p.Vector = s.OneHot(Trans, "tramstation")
	case Rest:
		p.Vector = vec.Vector{0.5, 0.3, 0.2}
	case Attr:
		p.Vector = vec.Vector{0.7, 0.3}
	}
	return p
}

func TestCategoryParseRoundTrip(t *testing.T) {
	for _, c := range Categories {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	// Aliases.
	if got, err := ParseCategory("Restaurant"); err != nil || got != Rest {
		t.Fatalf("alias parse failed: %v %v", got, err)
	}
	if _, err := ParseCategory("spaceport"); err == nil {
		t.Fatal("unknown category accepted")
	}
}

func TestCategoryValid(t *testing.T) {
	if !Attr.Valid() {
		t.Fatal("Attr invalid")
	}
	if Category(9).Valid() {
		t.Fatal("Category(9) valid")
	}
}

func TestSchemaOneHot(t *testing.T) {
	s := testSchema()
	v := s.OneHot(Acco, "hostel")
	if v.Sum() != 1 || v[s.TypeIndex(Acco, "hostel")] != 1 {
		t.Fatalf("one-hot = %v", v)
	}
	// Unknown label: all-zero vector.
	z := s.OneHot(Acco, "igloo")
	if z.Sum() != 0 {
		t.Fatalf("unknown-type one-hot = %v, want zeros", z)
	}
	if len(z) != s.Dim(Acco) {
		t.Fatalf("one-hot dim = %d", len(z))
	}
}

func TestSchemaValidate(t *testing.T) {
	s := testSchema()
	good := mkPOI(1, Rest, 48.86, 2.34, s)
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid POI rejected: %v", err)
	}
	bad := []*POI{
		func() *POI { p := mkPOI(2, Rest, 48.86, 2.34, s); p.Cat = Category(7); return p }(),
		func() *POI { p := mkPOI(3, Rest, 91, 2.34, s); return p }(),
		func() *POI { p := mkPOI(4, Rest, 48.86, 2.34, s); p.Cost = -1; return p }(),
		func() *POI { p := mkPOI(5, Rest, 48.86, 2.34, s); p.Vector = vec.Vector{1}; return p }(),
		func() *POI { p := mkPOI(6, Rest, 48.86, 2.34, s); p.Vector = vec.Vector{2, 0, 0}; return p }(),
	}
	for i, p := range bad {
		if err := s.Validate(p); err == nil {
			t.Errorf("bad POI %d accepted", i)
		}
	}
}

func buildCollection(t *testing.T) (*Collection, *Schema) {
	t.Helper()
	s := testSchema()
	var pois []*POI
	id := 0
	// A small grid of POIs over central Paris, mixed categories.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			cat := Categories[(i*6+j)%NumCategories]
			pois = append(pois, mkPOI(id, cat, 48.84+0.01*float64(i), 2.30+0.012*float64(j), s))
			id++
		}
	}
	c, err := NewCollection(s, pois)
	if err != nil {
		t.Fatalf("NewCollection: %v", err)
	}
	return c, s
}

func TestCollectionIndexes(t *testing.T) {
	c, _ := buildCollection(t)
	if c.Len() != 36 {
		t.Fatalf("Len = %d", c.Len())
	}
	counts := c.CategoryCounts()
	for i, n := range counts {
		if n != 9 {
			t.Fatalf("category %v count = %d, want 9", Categories[i], n)
		}
	}
	p := c.ByID(17)
	if p == nil || p.ID != 17 {
		t.Fatalf("ByID(17) = %v", p)
	}
	if c.ByID(999) != nil {
		t.Fatal("ByID(999) found a POI")
	}
	for _, p := range c.ByCategory(Rest) {
		if p.Cat != Rest {
			t.Fatalf("ByCategory(Rest) contains %v", p.Cat)
		}
	}
}

func TestCollectionRejectsDuplicates(t *testing.T) {
	s := testSchema()
	pois := []*POI{mkPOI(1, Rest, 48.86, 2.34, s), mkPOI(1, Attr, 48.87, 2.35, s)}
	if _, err := NewCollection(s, pois); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestCollectionRejectsInvalid(t *testing.T) {
	s := testSchema()
	p := mkPOI(1, Rest, 48.86, 2.34, s)
	p.Vector = vec.Vector{1} // wrong dim
	if _, err := NewCollection(s, []*POI{p}); err == nil {
		t.Fatal("invalid POI accepted")
	}
	if _, err := NewCollection(nil, nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestNearestRespectsCategory(t *testing.T) {
	c, _ := buildCollection(t)
	q := geo.Point{Lat: 48.86, Lon: 2.33}
	cat := Rest
	got := c.Nearest(q, 5, &cat, nil)
	if len(got) != 5 {
		t.Fatalf("Nearest returned %d POIs", len(got))
	}
	for _, p := range got {
		if p.Cat != Rest {
			t.Fatalf("Nearest(cat=rest) returned %v", p.Cat)
		}
	}
	// Ordered by distance.
	for i := 1; i < len(got); i++ {
		if geo.Equirectangular(q, got[i-1].Coord) > geo.Equirectangular(q, got[i].Coord)+1e-12 {
			t.Fatal("Nearest not distance-ordered")
		}
	}
}

func TestNearestAcceptFilter(t *testing.T) {
	c, _ := buildCollection(t)
	q := geo.Point{Lat: 48.86, Lon: 2.33}
	got := c.Nearest(q, 3, nil, func(p *POI) bool { return p.ID%2 == 1 })
	if len(got) == 0 {
		t.Fatal("filtered Nearest empty")
	}
	for _, p := range got {
		if p.ID%2 != 1 {
			t.Fatalf("accept filter violated: id %d", p.ID)
		}
	}
}

func TestInRect(t *testing.T) {
	c, _ := buildCollection(t)
	r := geo.Rect{Lat: 48.87, Lon: 2.30, Width: 0.03, Height: 0.02}
	got := c.InRect(r, nil)
	if len(got) == 0 {
		t.Fatal("InRect found nothing")
	}
	for _, p := range got {
		if !r.Contains(p.Coord) {
			t.Fatalf("InRect returned POI outside rect: %v", p.Coord)
		}
	}
	cat := Attr
	for _, p := range c.InRect(r, &cat) {
		if p.Cat != Attr {
			t.Fatalf("InRect(cat=attr) returned %v", p.Cat)
		}
	}
}

func TestEmptyCollection(t *testing.T) {
	s := testSchema()
	c, err := NewCollection(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Nearest(geo.Point{}, 3, nil, nil); got != nil {
		t.Fatalf("Nearest on empty = %v", got)
	}
	if got := c.InRect(geo.Rect{Lat: 1, Width: 1, Height: 1}, nil); got != nil {
		t.Fatalf("InRect on empty = %v", got)
	}
}

func TestNormalizerCoversCollection(t *testing.T) {
	c, _ := buildCollection(t)
	n := c.Normalizer()
	all := c.All()
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j += 5 {
			d := n.Distance(all[i].Coord, all[j].Coord)
			if d < 0 || d > 1 {
				t.Fatalf("normalized distance %v outside [0,1]", d)
			}
		}
	}
}

// TestPreparedByCategoryAligned checks the prepared coordinates line up
// with ByCategory, including when several goroutines ask first at once.
func TestPreparedByCategoryAligned(t *testing.T) {
	c, _ := buildCollection(t)
	var wg sync.WaitGroup
	got := make([][NumCategories][]geo.Prepared, 4)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, cat := range Categories {
				got[g][cat] = c.PreparedByCategory(cat)
			}
		}(g)
	}
	wg.Wait()
	for _, cat := range Categories {
		list := c.ByCategory(cat)
		for g := range got {
			prep := got[g][cat]
			if len(prep) != len(list) {
				t.Fatalf("%s: %d prepared points for %d POIs", cat, len(prep), len(list))
			}
			for i, p := range list {
				if prep[i] != geo.Prepare(p.Coord) {
					t.Fatalf("%s[%d]: prepared point does not match POI %d", cat, i, p.ID)
				}
			}
		}
	}
}
