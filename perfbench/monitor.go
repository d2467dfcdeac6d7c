package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"grouptravel/internal/replicate"
)

// monitor holds a /wal?stream=1 push stream open on the follower for
// each city. The follower's stream wakes when it applies a record, so
// the time a frame arrives here is when a co-traveller reading without
// a token could first see that write on the follower.
type monitor struct {
	mu     sync.Mutex
	seen   map[string][]visPoint // per city, in sequence order
	frames int64
	bytes  int64

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

type visPoint struct {
	seq int64
	at  time.Time
}

func startMonitor(followerURL string, from map[string]int64) *monitor {
	ctx, cancel := context.WithCancel(context.Background())
	m := &monitor{seen: map[string][]visPoint{}, cancel: cancel}
	cl := &replicate.Client{Base: followerURL}
	for city, seq := range from {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for ctx.Err() == nil {
				// A stream ends when the follower compacts under it or
				// hits its life cap; resume after the last seen record.
				_ = cl.Stream(ctx, city, seq, func(b *replicate.Batch) error {
					now := time.Now()
					m.mu.Lock()
					defer m.mu.Unlock()
					if b.Snapshot != nil && b.SnapshotSeq > seq {
						seq = b.SnapshotSeq
						m.seen[city] = append(m.seen[city], visPoint{seq, now})
					}
					for _, fr := range b.Frames {
						if fr.Seq > seq {
							seq = fr.Seq
							m.seen[city] = append(m.seen[city], visPoint{seq, now})
							m.frames++
							m.bytes += fr.WireLen()
						}
					}
					return nil
				})
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}
	return m
}

func (m *monitor) stop() {
	m.cancel()
	m.wg.Wait()
}

// visibleAt is when the follower had applied seq in city.
func (m *monitor) visibleAt(city string, seq int64) (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pts := m.seen[city]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].seq >= seq })
	if i == len(pts) {
		return time.Time{}, false
	}
	return pts[i].at, true
}

// appliedAt is the follower's applied seq in city as of t.
func (m *monitor) appliedAt(city string, t time.Time, base int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	pts := m.seen[city]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].at.After(t) })
	if i == 0 {
		return base
	}
	return pts[i-1].seq
}

// await waits until every write is visible or the timeout passes, and
// reports how many never became visible.
func (m *monitor) await(writes []ackedWrite, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		missing := 0
		for _, w := range writes {
			if _, ok := m.visibleAt(w.city, w.seq); !ok {
				missing++
			}
		}
		if missing == 0 || time.Now().After(deadline) {
			return missing
		}
		time.Sleep(10 * time.Millisecond)
	}
}
