package serve

import (
	"container/list"
	"context"
	"sync"

	"kronlab/internal/groundtruth"
)

// SummaryKey identifies one cacheable factor summary: the factor's
// registry hash, whether the +I (full self loops) variant is wanted, and
// the tiers it holds beyond the degrees (groundtruth.Triangles,
// groundtruth.Distances) — those of the law row that asked. Distinct keys
// are distinct entries, each built from scratch, and a groundtruth.Factor
// is never written after it is built, so a summary is never mutated after
// it is published.
type SummaryKey struct {
	Hash  string
	Loops bool
	Tiers groundtruth.Tiers
}

// call is an in-flight summary build shared by all requests that asked
// for the same key while it was computing (singleflight).
type call struct {
	done chan struct{}
	f    *groundtruth.Factor
}

// SummaryCache is a size-bounded LRU of factor summaries with
// singleflight deduplication: N concurrent requests for the same key cost
// exactly one build. A degree query's entry holds degrees alone and a
// diameter query's no triangles, so no query pays for a tier it does not
// read. No entry shares an array the cache charges with another, so
// Bytes() is the sum of the resident entries' CostBytes; the graph, which
// a +I summary reads too, is the registry's and charged to no entry.
type SummaryCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recent; values are *cacheEntry
	items    map[SummaryKey]*list.Element
	inflight map[SummaryKey]*call
	metrics  *Metrics
}

type cacheEntry struct {
	key   SummaryKey
	f     *groundtruth.Factor
	bytes int64 // f.CostBytes()
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
		metrics:  m,
	}
}

// Get returns the summary for key, building it with build at most once no
// matter how many goroutines ask concurrently. Waiters abandon the wait
// (but not the build) when ctx is done.
func (c *SummaryCache) Get(ctx context.Context, key SummaryKey, build func() *groundtruth.Factor) (*groundtruth.Factor, error) {
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
			return cl.f, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	c.metrics.SummaryBuilds.Add(1)
	cl.f = build()
	close(cl.done)

	c.mu.Lock()
	delete(c.inflight, key)
	c.insertLocked(key, cl.f)
	c.mu.Unlock()
	return cl.f, nil
}

// insertLocked adds a freshly built entry and evicts from the cold end
// until the budget holds. The newest entry itself is never evicted even
// when it alone exceeds the budget — serving beats strict accounting.
func (c *SummaryCache) insertLocked(key SummaryKey, f *groundtruth.Factor) {
	e := &cacheEntry{key: key, f: f, bytes: f.CostBytes()}
	c.items[key] = c.ll.PushFront(e)
	c.curBytes += e.bytes
	for c.curBytes > c.maxBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.curBytes -= e.bytes
		c.metrics.CacheEvictions.Add(1)
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
