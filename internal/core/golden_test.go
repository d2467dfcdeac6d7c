package core

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"grouptravel/internal/consensus"
	"grouptravel/internal/dataset"
	"grouptravel/internal/geo"
	"grouptravel/internal/poi"
	"grouptravel/internal/profile"
	"grouptravel/internal/query"
	"grouptravel/internal/rng"
)

// goldenPath holds the packages planStream builds, as recorded on the
// engine at commit 6f6600e — before the O(n·k) membership update, the
// prepared-coordinate distance kernel and top-k CI selection. The engine
// must keep building exactly these packages.
const goldenPath = "testdata/plan_golden.txt"

// planSessions is the number of build+rebuild sessions in planStream.
const planSessions = 200

// planStream replays a plan-like workload on a DefaultSpec city with the
// default 64-entry cluster cache and returns one line per build: the
// build's parameters, its CIs' item ids and its Eq. 1 value. A session
// draws a group of 3-6 members rating every type 0-5, one of the four
// consensus functions, k in 3..10 and one of the 15 non-empty category
// masks with one POI per category and an unbounded budget; it builds,
// then rebuilds the same clustering key for the group with re-drawn
// ratings (the refine path). Every fifth session uses the default query
// instead of a mask and every seventh a bounded budget, so the default
// counts and the budget-repair path are covered too.
func planStream(t *testing.T) []string {
	t.Helper()
	city, err := dataset.Generate(dataset.DefaultSpec("Golden", geo.Point{Lat: 48.8566, Lon: 2.3522}, 12))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(city)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(12)
	group := func(n int, method consensus.Method) *profile.Profile {
		members := make([]*profile.Profile, n)
		for i := range members {
			ratings := map[poi.Category][]float64{}
			for _, cat := range poi.Categories {
				v := make([]float64, city.Schema.Dim(cat))
				for j := range v {
					v[j] = float64(src.Intn(6))
				}
				ratings[cat] = v
			}
			p, err := profile.FromRatings(city.Schema, ratings)
			if err != nil {
				t.Fatal(err)
			}
			members[i] = p
		}
		g, err := profile.NewGroup(city.Schema, members)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := consensus.GroupProfile(g, method)
		if err != nil {
			t.Fatal(err)
		}
		return gp
	}
	var lines []string
	for s := 0; s < planSessions; s++ {
		n := 3 + src.Intn(4)
		method := consensus.Methods[src.Intn(len(consensus.Methods))]
		k := 3 + src.Intn(8)
		mask := 1 + src.Intn(15)
		var counts [poi.NumCategories]int
		for c := range counts {
			if mask&(1<<c) != 0 {
				counts[c] = 1
			}
		}
		if s%5 == 4 {
			counts = query.Default().Counts
		}
		q := query.MustNew(counts[0], counts[1], counts[2], counts[3], math.Inf(1))
		if s%7 == 6 {
			q.Budget = 3.5 * float64(q.Size())
		}
		budget := q.Budget
		for build := 0; build < 2; build++ {
			tp, err := e.Build(group(n, method), q, DefaultParams(k))
			line := fmt.Sprintf("s%d/%d k=%d counts=%v budget=%v %s:", s, build, k, counts, budget, method.Name)
			if err != nil {
				lines = append(lines, line+" error")
				continue
			}
			var days []string
			for _, c := range tp.CIs {
				ids := make([]string, len(c.Items))
				for i, it := range c.Items {
					ids[i] = strconv.Itoa(it.ID)
				}
				days = append(days, strings.Join(ids, ","))
			}
			lines = append(lines, fmt.Sprintf("%s %s obj=%v", line, strings.Join(days, ";"), tp.ObjVal))
		}
	}
	return lines
}

// TestPlanStreamMatchesGolden pins the engine's packages: every build of
// the plan-like stream must pick exactly the recorded items, in the
// recorded order. The Eq. 1 value may differ by rounding (1e-9 relative).
func TestPlanStreamMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays 400 builds on a full-size city")
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := planStream(t)
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden has %d", len(got), len(want))
	}
	for i := range want {
		gItems, gObj := splitObjective(got[i])
		wItems, wObj := splitObjective(want[i])
		if gItems != wItems {
			t.Fatalf("build %d differs from the golden package:\n got %s\nwant %s", i, gItems, wItems)
		}
		if math.Abs(gObj-wObj) > 1e-9*math.Abs(wObj) {
			t.Fatalf("build %d: objective %v, golden %v", i, gObj, wObj)
		}
	}
}

// splitObjective separates a planStream line into its item part and its
// objective (NaN for a failed build).
func splitObjective(line string) (string, float64) {
	items, obj, ok := strings.Cut(line, " obj=")
	if !ok {
		return line, math.NaN()
	}
	v, err := strconv.ParseFloat(obj, 64)
	if err != nil {
		return line, math.NaN()
	}
	return items, v
}
