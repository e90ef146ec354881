package serve

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"kronlab/internal/analytics"
	"kronlab/internal/groundtruth"
)

// SummaryKey identifies one cacheable factor summary: the factor's
// registry hash, whether the +I (full self loops) variant is wanted, and
// whether the distance tier (per-vertex cumulative hop profiles,
// eccentricities, diameter) is included. Distinct keys are distinct cache entries, and a
// groundtruth.Factor is never written after it is built, so a summary is
// never mutated after it is published.
type SummaryKey struct {
	Hash      string
	Loops     bool
	Distances bool
}

func (k SummaryKey) String() string {
	return fmt.Sprintf("%.12s/loops=%v/dist=%v", k.Hash, k.Loops, k.Distances)
}

// call is an in-flight summary build shared by all requests that asked
// for the same key while it was computing (singleflight).
type call struct {
	done chan struct{}
	f    *groundtruth.Factor
	err  error
}

// SummaryCache is a size-bounded LRU of factor summaries with
// singleflight deduplication: N concurrent requests for the same key cost
// exactly one build. The distance tier of a factor is a separate (larger)
// entry from its basic tier, so cheap degree/triangle queries never pay
// for hop profiles they don't need. The byte budget is accounted with
// groundtruth.Factor.CostBytes, each resident byte once: an entry pays for
// its distance tier, and the base it shares with the entry below it is
// paid while any resident entry holds it.
type SummaryCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recent; values are *cacheEntry
	items    map[SummaryKey]*list.Element
	inflight map[SummaryKey]*call
	holders  map[*analytics.TriangleStats]int64 // resident entries by the base they share
	metrics  *Metrics
}

type cacheEntry struct {
	key SummaryKey
	f   *groundtruth.Factor
}

// NewSummaryCache returns a cache with the given byte budget. A budget
// ≤ 0 still caches the single most recent entry (the cache also serves as
// the synchronization point for builds, so it is never fully disabled).
func NewSummaryCache(maxBytes int64, m *Metrics) *SummaryCache {
	return &SummaryCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[SummaryKey]*list.Element),
		inflight: make(map[SummaryKey]*call),
		holders:  make(map[*analytics.TriangleStats]int64),
		metrics:  m,
	}
}

// Get returns the summary for key, building it with build at most once no
// matter how many goroutines ask concurrently. Waiters abandon the wait
// (but not the build) when ctx is done.
func (c *SummaryCache) Get(ctx context.Context, key SummaryKey, build func() (*groundtruth.Factor, error)) (*groundtruth.Factor, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		f := el.Value.(*cacheEntry).f
		c.mu.Unlock()
		c.metrics.CacheHits.Add(1)
		return f, nil
	}
	c.metrics.CacheMisses.Add(1)
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-cl.done:
			return cl.f, cl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	c.metrics.SummaryBuilds.Add(1)
	cl.f, cl.err = build()
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.f)
	}
	c.mu.Unlock()
	return cl.f, cl.err
}

// insertLocked adds a freshly built entry and evicts from the cold end
// until the budget holds. The newest entry itself is never evicted even
// when it alone exceeds the budget — serving beats strict accounting.
func (c *SummaryCache) insertLocked(key SummaryKey, f *groundtruth.Factor) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, f: f})
	c.chargeLocked(f, 1)
	for c.curBytes > c.maxBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.chargeLocked(e.f, -1)
		c.metrics.CacheEvictions.Add(1)
	}
}

// chargeLocked adds (sign 1) or removes (sign −1) a resident summary's
// bytes: its distance tier always, its base — the degrees and triangles
// WithDistances shares — only as the first entry to hold it arrives or
// the last one leaves. So evicting a base entry under a resident distance
// entry frees nothing: its cost stays with the entry still holding it.
func (c *SummaryCache) chargeLocked(f *groundtruth.Factor, sign int64) {
	base, distances := f.CostBytes()
	c.curBytes += sign * distances
	held := c.holders[f.Tri]
	if held == 0 || held+sign == 0 {
		c.curBytes += sign * base
	}
	if held += sign; held == 0 {
		delete(c.holders, f.Tri)
	} else {
		c.holders[f.Tri] = held
	}
}

// Len returns the number of resident entries.
func (c *SummaryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted resident size.
func (c *SummaryCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}
