package main

import (
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"grouptravel/internal/dataset"
	"grouptravel/internal/poi"
)

// cityData is what the generator knows about one served city: its
// dataset (the generator made it) and the groups and packages set-up
// seeded in it.
type cityData struct {
	key    string
	city   *dataset.City
	poiIDs []int

	mu     sync.Mutex
	groups []int
	pkgs   []seededPkg
}

type seededPkg struct {
	id, members int
	items       [][]int // item ids per CI after set-up
}

func (cd *cityData) add(groupID int, pkgs ...seededPkg) {
	cd.mu.Lock()
	cd.groups = append(cd.groups, groupID)
	cd.pkgs = append(cd.pkgs, pkgs...)
	cd.mu.Unlock()
}

type pkgKey struct {
	city string
	id   int
}

// queryReq mirrors the server's package query body.
type queryReq struct {
	Acco, Trans, Rest, Attr int
	Budget                  float64
}

// buildInput is one package-creation request, kept for the core replay.
type buildInput struct {
	city      string
	members   []map[string][]float64
	consensus string
	k         int
	query     *queryReq
}

type pkgJSON struct {
	ID   int `json:"id"`
	Days []struct {
		Items []struct {
			ID int `json:"id"`
		} `json:"items"`
	} `json:"days"`
}

func (p *pkgJSON) items() [][]int {
	out := make([][]int, len(p.Days))
	for i, d := range p.Days {
		for _, it := range d.Items {
			out[i] = append(out[i], it.ID)
		}
	}
	return out
}

// wellFormed checks a built package: k days, none empty.
func (p *pkgJSON) wellFormed(k int) bool {
	if len(p.Days) != k {
		return false
	}
	for _, d := range p.Days {
		if len(d.Items) == 0 {
			return false
		}
	}
	return true
}

var consensusFns = []string{"avg", "leastmisery", "pairwise", "variance"}

// planParams draws a package's k and query composition.
type planParams func(r *rand.Rand) (int, *queryReq)

// seedParams: three k values over the default query, so set-up builds
// run against a warm cluster cache.
func seedParams(r *rand.Rand) (int, *queryReq) { return 2 + r.Intn(3), nil }

// mixedParams: k in 3..10 times the 15 non-empty category masks is 120
// clustering keys, about twice the engine's cluster-cache capacity (64).
func mixedParams(r *rand.Rand) (int, *queryReq) {
	mask := 1 + r.Intn(15)
	q := &queryReq{}
	for bit, n := range []*int{&q.Acco, &q.Trans, &q.Rest, &q.Attr} {
		if mask&(1<<bit) != 0 {
			*n = 1
		}
	}
	return 3 + r.Intn(8), q
}

// planCycle is one group's planning session: create the group, build a
// package, read it back, customize it once, refine it with a rebuild and
// read the new package back. Both packages are registered in cd. The
// group creation is timed from due (the zero time means now).
func (c *client) planCycle(cd *cityData, params planParams, due time.Time) bool {
	n := 3 + c.rng.Intn(4)
	members := make([]map[string][]float64, n)
	for i := range members {
		m := map[string][]float64{}
		for _, cat := range poi.Categories {
			v := make([]float64, cd.city.Schema.Dim(cat))
			for j := range v {
				v[j] = float64(c.rng.Intn(6))
			}
			m[cat.String()] = v
		}
		members[i] = m
	}
	resp, ok := c.call(http.MethodPost, cd.key, cityPath(cd.key, "groups"), map[string]any{"members": members},
		http.StatusCreated, true, due)
	var g struct {
		ID int `json:"id"`
	}
	if !ok || !c.decode(resp, &g) {
		return false
	}

	k, q := params(c.rng)
	body := map[string]any{"group": g.ID, "consensus": consensusFns[c.rng.Intn(len(consensusFns))], "k": k}
	if q != nil {
		body["query"] = q
	}
	if c.trace {
		c.led.mu.Lock()
		c.led.builds = append(c.led.builds, buildInput{city: cd.key, members: members,
			consensus: body["consensus"].(string), k: k, query: q})
		c.led.mu.Unlock()
	}
	resp, ok = c.call(http.MethodPost, cd.key, cityPath(cd.key, "packages"), body, http.StatusCreated, true, time.Time{})
	var built pkgJSON
	if !ok || !c.decode(resp, &built) {
		return false
	}
	if !built.wellFormed(k) {
		c.led.fail("built package is not k non-empty days")
		return false
	}
	first := seededPkg{id: built.ID, members: n}
	c.models[pkgKey{cd.key, built.ID}] = built.items()
	if !c.customize(cd, first, time.Time{}) {
		return false
	}

	strategy := "batch"
	if c.rng.Intn(2) == 0 {
		strategy = "individual"
	}
	resp, ok = c.call(http.MethodPost, cd.key, cityPath(cd.key, "packages", built.ID, "refine"),
		map[string]any{"strategy": strategy, "rebuild": true, "k": k}, http.StatusOK, true, time.Time{})
	var refined struct {
		NewPackage *pkgJSON `json:"newPackage"`
	}
	if !ok || !c.decode(resp, &refined) {
		return false
	}
	if refined.NewPackage == nil || !refined.NewPackage.wellFormed(k) {
		c.led.fail("refine rebuild did not return k non-empty days")
		return false
	}
	second := seededPkg{id: refined.NewPackage.ID, members: n}
	c.models[pkgKey{cd.key, second.id}] = refined.NewPackage.items()
	if !c.readOwn(cd, second.id, time.Time{}) {
		return false
	}
	first.items = c.models[pkgKey{cd.key, first.id}]
	second.items = c.models[pkgKey{cd.key, second.id}]
	cd.add(g.ID, first, second)
	return true
}

// readOwn reads a package this client edits with its session and checks
// that it shows exactly the client's own edits.
func (c *client) readOwn(cd *cityData, id int, due time.Time) bool {
	resp, ok := c.call(http.MethodGet, cd.key, cityPath(cd.key, "packages", id), nil, http.StatusOK, true, due)
	var p pkgJSON
	if !ok || !c.decode(resp, &p) {
		return false
	}
	key := pkgKey{cd.key, id}
	got := p.items()
	if want, ok := c.models[key]; ok && !slices.EqualFunc(want, got, slices.Equal[[]int]) {
		c.led.fail("package read with the session does not show the session's edits")
		return false
	}
	c.models[key] = got
	return true
}

// customize is one collaborator step: read the package with the session,
// then apply a remove, add or replace that is valid for what was read —
// a CI index and POI id from the package, a member index inside the
// group — keeping every CI between 2 and 6 items.
func (c *client) customize(cd *cityData, p seededPkg, due time.Time) bool {
	if !c.readOwn(cd, p.id, due) {
		return false
	}
	key := pkgKey{cd.key, p.id}
	items := c.models[key]
	ci := c.rng.Intn(len(items))
	day := items[ci]
	op := []string{"remove", "add", "replace"}[c.rng.Intn(3)]
	switch {
	case len(day) <= 2:
		op = "add"
	case len(day) >= 6:
		op = "remove"
	}
	var target, pos int
	if op == "add" {
		for {
			target = cd.poiIDs[c.rng.Intn(len(cd.poiIDs))]
			if !slices.Contains(day, target) {
				break
			}
		}
	} else {
		pos = c.rng.Intn(len(day))
		target = day[pos]
	}
	resp, ok := c.call(http.MethodPost, cd.key, cityPath(cd.key, "packages", p.id, "ops"),
		map[string]any{"member": c.rng.Intn(p.members), "op": op, "ci": ci, "poi": target},
		http.StatusOK, true, time.Time{})
	var res struct {
		Applied     bool `json:"applied"`
		Replacement *struct {
			ID int `json:"id"`
		} `json:"replacement"`
	}
	if !ok || !c.decode(resp, &res) {
		return false
	}
	if !res.Applied || op == "replace" && res.Replacement == nil {
		c.led.fail("customization op not applied")
		return false
	}
	day = slices.Clone(day)
	switch op {
	case "remove":
		day = slices.Delete(day, pos, pos+1)
	case "add":
		day = append(day, target)
	case "replace":
		day[pos] = res.Replacement.ID
	}
	items = slices.Clone(items)
	items[ci] = day
	c.models[key] = items
	return true
}

// readBare is a co-traveller's token-less GET.
func (c *client) readBare(city, path string, due time.Time) {
	if resp, ok := c.call(http.MethodGet, city, path, nil, http.StatusOK, false, due); ok &&
		(len(resp) == 0 || resp[0] != '{' && resp[0] != '[') {
		c.led.fail("token-less read did not return JSON")
	}
}

// seed runs the set-up's planning sessions closed loop: perCity[i]
// packages in city i, two per session.
func seed(clients []*client, cities []*cityData, perCity []int) {
	jobs := make(chan *cityData, 1024)
	go func() {
		defer close(jobs)
		left := slices.Clone(perCity)
		for more := true; more; {
			more = false
			for i, cd := range cities {
				if left[i] > 0 {
					left[i] -= 2
					jobs <- cd
					more = true
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cd := range jobs {
				c.planCycle(cd, seedParams, time.Time{})
			}
		}()
	}
	wg.Wait()
}

// arrival is one open-loop arrival: when it is due and a draw the
// workload turns into requests.
type arrival struct {
	due  time.Time
	kind int
	city int
	x    int
}

// sleepPrecise blocks for d in a nanosleep system call. time.Sleep on
// an otherwise idle Go process waits in epoll with millisecond
// granularity, which would add up to a millisecond of the generator's
// own lateness to every open-loop request.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only makes the arrival late, which is measured
}

// maxLate is how long an arrival may wait for a free client before it
// counts as unsent.
const maxLate = 2 * time.Second

// runOpen is the open-loop generator: Poisson arrivals at rate per second
// for the window, drawn from seed before the window starts. Each client
// takes the next arrival, sleeps until it is due and serves it; an
// arrival no client could start within maxLate of its due time counts as
// an unsent failure. Lateness is recorded for every arrival sent.
func runOpen(clients []*client, led *ledger, seed int64, rate float64, window time.Duration,
	draw func(r *rand.Rand) arrival, exec func(c *client, a arrival)) {
	rng := rand.New(rand.NewSource(seed))
	var sched []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at > window {
			break
		}
		a := draw(rng)
		a.due = time.Time{}.Add(at)
		sched = append(sched, a)
	}
	start := time.Now()
	var next, unsent atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				a := sched[i]
				a.due = start.Add(a.due.Sub(time.Time{}))
				late := -time.Until(a.due)
				if late < 0 {
					sleepPrecise(-late)
					late = -time.Until(a.due)
				}
				if late > maxLate {
					unsent.Add(1)
					continue
				}
				led.mu.Lock()
				led.late = append(led.late, float64(late)/float64(time.Millisecond))
				led.mu.Unlock()
				exec(c, a)
			}
		}()
	}
	wg.Wait()
	n := unsent.Load()
	led.mu.Lock()
	led.attempted += n
	led.failed += n
	if n > 0 {
		led.reasons["arrival not sent within 2s of its due time"] += n
	}
	led.mu.Unlock()
}
