package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// stub answers like a router would, with one deliberate fault.
func stub(t *testing.T, h http.HandlerFunc) *client {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	c := newClient(0, srv.URL, 1, false)
	c.led = newLedger()
	t.Cleanup(c.close)
	return c
}

func failures(c *client) string {
	var b strings.Builder
	c.led.reportFailures(&b, "test")
	return b.String()
}

func TestStaleAppliedSeqIsAWrongAnswer(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set(headerSeq, "7")
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":1}`))
			return
		}
		w.Header().Set(headerAppliedSeq, "6") // one record short of the write
		w.Write([]byte(`{"id":1}`))
	})
	if _, ok := c.call(http.MethodPost, "x", cityPath("x", "groups"), map[string]any{}, http.StatusCreated, true, zeroTime); !ok {
		t.Fatalf("write rejected: %s", failures(c))
	}
	if _, ok := c.call(http.MethodGet, "x", cityPath("x", "groups", 1), nil, http.StatusOK, true, zeroTime); ok {
		t.Fatal("a read below the session's commit token was accepted")
	}
	if c.led.failed != 1 || !strings.Contains(failures(c), "read-your-writes") {
		t.Fatalf("failed = %d, reasons:\n%s", c.led.failed, failures(c))
	}
	// The same read without the session is not held to the token.
	if _, ok := c.call(http.MethodGet, "x", cityPath("x", "groups", 1), nil, http.StatusOK, false, zeroTime); !ok {
		t.Fatal("a token-less read was held to the session's token")
	}
}

func TestRejectedOpIsAFailure(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/ops") {
			w.WriteHeader(http.StatusUnprocessableEntity)
			w.Write([]byte(`{"error":"interact: POI 0 not in CI 0"}`))
			return
		}
		w.Header().Set(headerAppliedSeq, "1")
		w.Write([]byte(`{"id":3,"days":[{"items":[{"id":10},{"id":11},{"id":12}]}]}`))
	})
	cd := &cityData{key: "x", poiIDs: []int{10, 11, 12, 13}}
	if c.customize(cd, seededPkg{id: 3, members: 3}, zeroTime) {
		t.Fatal("a 422 on a customization op was accepted")
	}
	if c.led.failed != 1 || !strings.Contains(failures(c), "status 422") {
		t.Fatalf("failed = %d, reasons:\n%s", c.led.failed, failures(c))
	}
}

func TestSessionReadMustShowOwnEdits(t *testing.T) {
	c := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerAppliedSeq, "1")
		w.Write([]byte(`{"id":3,"days":[{"items":[{"id":10},{"id":11}]}]}`))
	})
	c.models[pkgKey{"x", 3}] = [][]int{{10, 12}} // the client replaced 11 by 12
	if c.readOwn(&cityData{key: "x"}, 3, zeroTime) {
		t.Fatal("a package missing the session's own edit was accepted")
	}
	if !strings.Contains(failures(c), "does not show the session's edits") {
		t.Fatalf("reasons:\n%s", failures(c))
	}
}

// TestWorkloadsPrintEveryMetric runs each workload briefly, traced and
// untraced, and checks the result line names every metric of
// BENCHMARK.json with its unit and reports no failures.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the full topology")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, pkg := range []string{".", "./node"} {
		name := map[string]string{".": "perfbench", "./node": "gtnode"}[pkg]
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"browse", "plan"} {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			cmd := exec.Command(filepath.Join(bin, "perfbench"),
				"--workload", w, "--seed", "5", "--seconds", "3", "--trace", []string{"0", "1"}[trace])
			cmd.Dir, cmd.Stderr = root, os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, trace, err)
			}
			var last string
			for sc := bufio.NewScanner(strings.NewReader(string(out))); sc.Scan(); {
				last = sc.Text()
			}
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace=%d: last line %q: %v", w, trace, last, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

var zeroTime time.Time
