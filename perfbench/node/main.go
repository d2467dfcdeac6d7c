// gtnode runs one tier of the benchmark topology as its own OS process:
// a primary shard, a streaming follower, or the edge-cached router. It
// calls the same constructors the daemons do (server.NewMultiCity,
// router.New) so the benchmark measures the shipped code paths, while
// giving the benchmark what the daemons lack: a port-0 listener whose URL
// is printed as "READY <url>" on stdout, and, with -spans, span recording
// at the tier's public boundaries.
//
// Tracing is per request: only requests whose X-GT-Request-Id starts
// with the trace prefix are recorded, so untraced requests in a traced
// run pay one header lookup. Spans stay in memory and are written to the
// -spans file when the process receives SIGTERM or SIGINT.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"grouptravel/internal/router"
	"grouptravel/internal/server"
	"grouptravel/internal/telemetry"
)

// TracePrefix marks a request id the benchmark wants spans for.
const TracePrefix = "pbt-"

func main() {
	role := flag.String("role", "", "primary, follower or router")
	dataDir := flag.String("data-dir", "", "directory of <key>.json city datasets (shards)")
	snapDir := flag.String("snapshot-dir", "", "WAL and snapshot directory (shards)")
	preload := flag.String("preload", "", "comma-separated city keys to load at boot (shards)")
	follow := flag.String("follow", "", "primary base URL (follower)")
	nodes := flag.String("nodes", "", "comma-separated shard node URLs, primary first (router)")
	spansPath := flag.String("spans", "", "record traced spans and write them here on exit")
	flag.Parse()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	url := "http://" + ln.Addr().String()

	var rec *recorder
	if *spansPath != "" {
		rec = &recorder{spans: make([]span, 0, 1<<15)}
	}

	var handler http.Handler
	var closeFn func()
	switch *role {
	case "primary", "follower":
		opts := server.Options{
			DataDir:     *dataDir,
			SnapshotDir: *snapDir,
			Advertise:   url,
		}
		if *role == "follower" {
			opts.Follow = *follow
		}
		for _, k := range strings.Split(*preload, ",") {
			if k != "" {
				opts.PreloadCities = append(opts.PreloadCities, k)
			}
		}
		s, err := server.NewMultiCity(opts)
		if err != nil {
			log.Fatal(err)
		}
		handler, closeFn = rec.wrap("server", s.Handler()), s.Close
	case "router":
		opts := router.Options{
			Topology:  &router.Topology{Shards: []router.Shard{{Name: "s1", Nodes: strings.Split(*nodes, ",")}}},
			EdgeCache: true,
		}
		if rec != nil {
			// Untraced, the router keeps its own backend client. Traced,
			// a copy of its transport settings is wrapped to time the
			// upstream round trips; only per-layer metrics see it.
			opts.HTTP = &http.Client{Transport: rec.wrapTransport(&http.Transport{
				DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
				MaxIdleConns:          256,
				MaxIdleConnsPerHost:   32,
				IdleConnTimeout:       90 * time.Second,
				ResponseHeaderTimeout: 30 * time.Second,
			})}
		}
		rt, err := router.New(opts)
		if err != nil {
			log.Fatal(err)
		}
		rt.Poll() // learn roles before the first request
		handler, closeFn = rec.wrap("router", rt.Handler()), rt.Close
	default:
		log.Fatalf("unknown -role %q", *role)
	}

	srv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Printf("READY %s\n", url)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case <-sig:
	case err := <-done:
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv.Shutdown(ctx) // open /wal push streams never finish; Close below ends them
	cancel()
	_ = srv.Close()
	closeFn()
	if rec != nil {
		if err := rec.writeFile(*spansPath); err != nil {
			log.Fatal(err)
		}
	}
}

// span is one timed interval at a tier boundary, in Unix nanoseconds.
type span struct {
	ID     string `json:"id"`
	Layer  string `json:"layer"` // server, router or upstream
	Method string `json:"method"`
	Path   string `json:"path"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder keeps spans in memory; a nil recorder's wrap adds nothing.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func traceID(h http.Header) (string, bool) {
	id := h.Get(telemetry.HeaderRequestID)
	return id, strings.HasPrefix(id, TracePrefix)
}

// wrap times h for traced requests: the span ends when the handler has
// written the whole response.
func (r *recorder) wrap(layer string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, ok := traceID(req.Header)
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now().UnixNano()
		h.ServeHTTP(w, req)
		r.add(span{ID: id, Layer: layer, Method: req.Method, Path: req.URL.Path,
			Start: start, End: time.Now().UnixNano()})
	})
}

// wrapTransport times the router's backend round trips for traced
// requests, from the request leaving to its response body being closed.
func (r *recorder) wrapTransport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		id, ok := traceID(req.Header)
		if !ok {
			return base.RoundTrip(req)
		}
		s := span{ID: id, Layer: "upstream", Method: req.Method, Path: req.URL.Path,
			Start: time.Now().UnixNano()}
		resp, err := base.RoundTrip(req)
		if err != nil {
			s.End = time.Now().UnixNano()
			r.add(s)
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			s.End = time.Now().UnixNano()
			r.add(s)
		}}
		return resp, nil
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// timedBody calls done once, at Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return errors.Join(bw.Flush(), f.Close())
}
