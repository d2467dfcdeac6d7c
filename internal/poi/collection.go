package poi

import (
	"fmt"
	"sync"

	"grouptravel/internal/geo"
)

// Collection is an immutable, indexed set of POIs of one city. It provides
// the lookups GroupTravel's algorithms need: per-category candidate lists,
// nearest-neighbor queries (for the ADD/REPLACE operators), rectangle
// queries (for GENERATE), and the distance normalizer of Eq. 1.
type Collection struct {
	schema *Schema
	pois   []*POI
	byID   map[int]*POI
	byCat  [NumCategories][]*POI
	grid   *geo.GridIndex
	norm   geo.Normalizer

	// preparedByCat holds the distance-kernel form of every POI's
	// coordinates, aligned with byCat: the collection is immutable, so all
	// CI builds share one conversion. It is filled on first use, so a
	// process that never builds a CI does not hold it.
	prepareOnce   sync.Once
	preparedByCat [NumCategories][]geo.Prepared
}

// NewCollection indexes the POIs under the schema. Every POI is validated;
// duplicate IDs are rejected. The input slice is not retained.
func NewCollection(schema *Schema, pois []*POI) (*Collection, error) {
	if schema == nil {
		return nil, fmt.Errorf("poi: nil schema")
	}
	c := &Collection{
		schema: schema,
		pois:   make([]*POI, 0, len(pois)),
		byID:   make(map[int]*POI, len(pois)),
	}
	points := make([]geo.Point, 0, len(pois))
	for _, p := range pois {
		if err := schema.Validate(p); err != nil {
			return nil, err
		}
		if _, dup := c.byID[p.ID]; dup {
			return nil, fmt.Errorf("poi: duplicate id %d", p.ID)
		}
		c.byID[p.ID] = p
		c.pois = append(c.pois, p)
		c.byCat[p.Cat] = append(c.byCat[p.Cat], p)
		points = append(points, p.Coord)
	}
	if len(points) > 0 {
		c.grid = geo.NewGridIndex(points, 32)
		c.norm = geo.NormalizerFor(points)
	}
	return c, nil
}

// Schema returns the collection's schema.
func (c *Collection) Schema() *Schema { return c.schema }

// Len returns the number of POIs.
func (c *Collection) Len() int { return len(c.pois) }

// All returns all POIs in insertion order (shared slice; do not mutate).
func (c *Collection) All() []*POI { return c.pois }

// ByID returns the POI with the given id, or nil.
func (c *Collection) ByID(id int) *POI { return c.byID[id] }

// ByCategory returns all POIs of category cat (shared slice; do not
// mutate).
func (c *Collection) ByCategory(cat Category) []*POI { return c.byCat[cat] }

// PreparedByCategory returns the prepared coordinates of
// ByCategory(cat), index-aligned with it (shared slice; do not mutate).
func (c *Collection) PreparedByCategory(cat Category) []geo.Prepared {
	c.prepareOnce.Do(func() {
		for i, list := range c.byCat {
			prep := make([]geo.Prepared, len(list))
			for j, p := range list {
				prep[j] = geo.Prepare(p.Coord)
			}
			c.preparedByCat[i] = prep
		}
	})
	return c.preparedByCat[cat]
}

// Normalizer returns the distance normalizer derived from the city's POI
// cloud (the "largest observed distance value" of §3.2).
func (c *Collection) Normalizer() geo.Normalizer { return c.norm }

// Bounds returns the bounding rectangle of the city's POIs.
func (c *Collection) Bounds() geo.Rect {
	if c.grid == nil {
		return geo.Rect{}
	}
	return c.grid.Bounds()
}

// Nearest returns up to k POIs closest to q, optionally restricted to one
// category and filtered by an accept predicate (nil accepts all). This
// powers the paper's ADD operator, which shows "the closest items to CI
// satisfying the user filter", and REPLACE, which recommends "the closest
// POI j ... such that i.cat = j.cat".
func (c *Collection) Nearest(q geo.Point, k int, cat *Category, accept func(*POI) bool) []*POI {
	if c.grid == nil {
		return nil
	}
	ids := c.grid.Nearest(q, k, func(id int32) bool {
		p := c.pois[id]
		if cat != nil && p.Cat != *cat {
			return false
		}
		return accept == nil || accept(p)
	})
	out := make([]*POI, len(ids))
	for i, id := range ids {
		out[i] = c.pois[id]
	}
	return out
}

// InRect returns all POIs inside r, optionally restricted to one category.
// This powers the GENERATE(RECTANGLE(...)) operator.
func (c *Collection) InRect(r geo.Rect, cat *Category) []*POI {
	if c.grid == nil {
		return nil
	}
	var out []*POI
	for _, id := range c.grid.InRect(r) {
		p := c.pois[id]
		if cat != nil && p.Cat != *cat {
			continue
		}
		out = append(out, p)
	}
	return out
}

// CategoryCounts returns the number of POIs per category, in canonical
// category order.
func (c *Collection) CategoryCounts() [NumCategories]int {
	var n [NumCategories]int
	for i := range Categories {
		n[i] = len(c.byCat[i])
	}
	return n
}
