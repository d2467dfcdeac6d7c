package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"grouptravel/internal/telemetry"
)

// Protocol headers the checks read (see internal/router).
const (
	headerSeq        = "X-GT-Seq"
	headerAppliedSeq = "X-GT-Applied-Seq"
)

// ackedWrite is a mutation the system acknowledged with a commit token.
type ackedWrite struct {
	city string
	seq  int64
	ack  time.Time
}

// interval is a timed request or compaction (trace mode).
type interval struct {
	start, end time.Time
	ms         float64
}

// ledger collects one phase's requests: latencies per endpoint class,
// failures by reason, the writes to follow to the follower, and, in
// trace mode, what the per-layer metrics need.
type ledger struct {
	mu        sync.Mutex
	lat       map[string][]float64 // ms by endpoint class
	attempted int64
	failed    int64
	reasons   map[string]int64
	writes    []ackedWrite
	late      []float64

	traced, untraced map[string][]float64 // latency by class, trace mode
	collab           []interval           // collab requests, trace mode
	builds           []buildInput         // package-creation inputs, trace mode
}

func newLedger() *ledger {
	return &ledger{lat: map[string][]float64{}, reasons: map[string]int64{},
		traced: map[string][]float64{}, untraced: map[string][]float64{}}
}

func (l *ledger) fail(reason string) {
	l.mu.Lock()
	l.failed++
	l.reasons[reason]++
	l.mu.Unlock()
}

// merge adds o's samples to l.
func (l *ledger) merge(o *ledger) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range o.lat {
		l.lat[k] = append(l.lat[k], v...)
	}
	for k, v := range o.reasons {
		l.reasons[k] += v
	}
	l.attempted += o.attempted
	l.failed += o.failed
	l.writes = append(l.writes, o.writes...)
	l.late = append(l.late, o.late...)
	for k, v := range o.traced {
		l.traced[k] = append(l.traced[k], v...)
	}
	for k, v := range o.untraced {
		l.untraced[k] = append(l.untraced[k], v...)
	}
	l.collab = append(l.collab, o.collab...)
	l.builds = append(l.builds, o.builds...)
}

func (l *ledger) reportFailures(w io.Writer, phase string) {
	keys := make([]string, 0, len(l.reasons))
	for k := range l.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "perfbench: %s: %d × %s\n", phase, l.reasons[k], k)
	}
}

// client is one simulated user connection: at most one request in
// flight over one keep-alive connection, a gt-session cookie jar for
// requests that carry the session, and the commit tokens of its own
// writes, against which every session read is checked.
type client struct {
	id     int
	base   string
	jar    *http.Client
	bare   *http.Client
	rng    *rand.Rand
	led    *ledger
	floors map[string]int64 // city -> highest own commit token
	trace  bool
	phase  string // request-id phase tag: "s" set-up, "w" window
	n      int64
	models map[pkgKey][][]int // item ids per CI of the packages it edits
}

func newClient(id int, base string, seed int64, trace bool) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	jar, _ := cookiejar.New(nil) // error is always nil
	return &client{
		id:     id,
		base:   base,
		jar:    &http.Client{Transport: tr, Jar: jar, Timeout: 30 * time.Second},
		bare:   &http.Client{Transport: tr, Timeout: 30 * time.Second},
		rng:    rand.New(rand.NewSource(seed)),
		floors: map[string]int64{},
		trace:  trace,
		models: map[pkgKey][][]int{},
	}
}

func (c *client) close() { c.jar.Transport.(*http.Transport).CloseIdleConnections() }

// call sends one request and checks its answer. due is when the request
// was due (open loop); the zero time means now. session sends the
// cookie jar and checks read-your-writes on GETs. It returns the
// response body and true only when the status is the expected one and
// the checks pass; every other outcome is counted as a failure.
func (c *client) call(method, city, path string, body any, want int, session bool, due time.Time) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err) // bodies are benchmark-built maps and structs
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		panic(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	class := classOf(method, req.URL.Path)
	traced := false
	if c.trace {
		c.n++
		// Trace a pseudo-random half, so no request kind is always or
		// never traced.
		traced = uint64(c.n)*0x9E3779B97F4A7C15>>63 == 1
		prefix := "pbu-"
		if traced {
			prefix = "pbt-"
		}
		req.Header.Set(telemetry.HeaderRequestID, fmt.Sprintf("%s%s-%d-%d", prefix, c.phase, c.id, c.n))
	}
	hc := c.bare
	if session {
		hc = c.jar
	}
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	c.led.mu.Lock()
	c.led.attempted++
	c.led.mu.Unlock()
	resp, err := hc.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		c.led.fail("transport error: " + class)
		return nil, false
	}
	ms := float64(end.Sub(due)) / float64(time.Millisecond)
	c.led.mu.Lock()
	c.led.lat[class] = append(c.led.lat[class], ms)
	if c.trace {
		if traced {
			c.led.traced[class] = append(c.led.traced[class], ms)
		} else {
			c.led.untraced[class] = append(c.led.untraced[class], ms)
		}
		if class == telemetry.ClassCollab {
			c.led.collab = append(c.led.collab, interval{start: start, end: end, ms: ms})
		}
	}
	c.led.mu.Unlock()
	if resp.StatusCode != want {
		c.led.fail(fmt.Sprintf("status %d on %s (%s)", resp.StatusCode, class, firstLine(data)))
		return nil, false
	}
	if method == http.MethodGet && session {
		floor := c.floors[city]
		applied, err := strconv.ParseInt(resp.Header.Get(headerAppliedSeq), 10, 64)
		if floor > 0 && (err != nil || applied < floor) {
			c.led.fail("read-your-writes: applied seq below the session's commit token")
			return nil, false
		}
	}
	if method == http.MethodPost {
		seq, err := strconv.ParseInt(resp.Header.Get(headerSeq), 10, 64)
		if err != nil || seq <= 0 {
			c.led.fail("mutation without a commit token")
			return nil, false
		}
		c.floors[city] = max(c.floors[city], seq)
		c.led.mu.Lock()
		c.led.writes = append(c.led.writes, ackedWrite{city: city, seq: seq, ack: end})
		c.led.mu.Unlock()
	}
	return data, true
}

// classOf is the fleet's endpoint class (telemetry.Classify), except
// that group creation is a class of its own: "collab" is the
// customization operators alone, so its latency is not a mixture of two
// kinds of request.
func classOf(method, path string) string {
	if method == http.MethodPost && strings.HasSuffix(path, "/groups") {
		return "group"
	}
	return telemetry.Classify(method, path)
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// decode unmarshals a response body, counting a malformed one as a
// wrong answer.
func (c *client) decode(data []byte, out any) bool {
	if err := json.Unmarshal(data, out); err != nil {
		c.led.fail("malformed response body")
		return false
	}
	return true
}

func cityPath(city string, parts ...any) string {
	var b strings.Builder
	b.WriteString("/cities/")
	b.WriteString(url.PathEscape(city))
	for _, p := range parts {
		fmt.Fprintf(&b, "/%v", p)
	}
	return b.String()
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
