package engine

import (
	"container/list"
	"sync"

	"nanoxbar/internal/cachestore"
	"nanoxbar/internal/core"
)

// flight is one cache slot: either a completed synthesis result or a
// computation in progress that followers wait on. Completed flights are
// immutable; the Implementation they hold is shared read-only across
// every request that hits the slot.
type flight struct {
	done chan struct{} // closed when imp/err are final
	imp  *core.Implementation
	err  error
}

// cache is a canonicalizing LRU over synthesis results with in-flight
// deduplication: concurrent misses for one key run the compute function
// exactly once, and followers block on the leader's flight instead of
// recomputing. Eviction only removes completed entries, oldest first.
//
// One mutex guards the map, the recency list and the counters, so the
// capacity bound and the LRU order are global and a counters read is
// one consistent snapshot (hits never outrun misses). A hit holds the
// lock for a map lookup and a list move; the engine's request rate
// keeps it far from contended.
type cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // key → element whose Value is *cacheNode
	order    *list.List               // front = most recently used

	hits, misses, evictions, loads uint64
}

type cacheNode struct {
	key string
	fl  *flight
}

func newCache(capacity int) *cache {
	if capacity < 1 {
		capacity = 1
	}
	return &cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// getOrCompute returns the cached result for key, computing it with fn
// on a miss. The boolean reports a hit: true whenever this call did not
// itself run fn (including when it waited on another goroutine's
// in-flight computation). Failed computations are removed so later
// calls retry.
func (c *cache) getOrCompute(key string, fn func() (*core.Implementation, error)) (*core.Implementation, error, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		fl := el.Value.(*cacheNode).fl
		c.mu.Unlock()
		<-fl.done
		return fl.imp, fl.err, true
	}
	fl := &flight{done: make(chan struct{})}
	el := c.order.PushFront(&cacheNode{key: key, fl: fl})
	c.entries[key] = el
	c.misses++
	c.evictLocked()
	c.mu.Unlock()

	fl.imp, fl.err = fn()
	close(fl.done)
	if fl.err != nil {
		c.mu.Lock()
		// Only remove our own flight: the slot may already have been
		// evicted and repopulated by a retry.
		if cur, ok := c.entries[key]; ok && cur.Value.(*cacheNode).fl == fl {
			c.order.Remove(cur)
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	return fl.imp, fl.err, false
}

// peek returns the completed, successful entry for key without
// computing, blocking on an in-flight slot, touching the LRU order, or
// counting a hit/miss. It exists for the cluster peer-fill route: a
// sibling's lookup must not distort this node's own hit-rate
// accounting, and it must never wait behind a running synthesis.
func (c *cache) peek(key string) (*core.Implementation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	fl := el.Value.(*cacheNode).fl
	select {
	case <-fl.done:
		if fl.err == nil && fl.imp != nil {
			return fl.imp, true
		}
		return nil, false
	default: // still computing — report a miss rather than block
		return nil, false
	}
}

// evictLocked trims completed entries from the LRU tail until the cache
// fits its capacity. In-flight entries are skipped — evicting them
// would duplicate running syntheses.
func (c *cache) evictLocked() {
	for el := c.order.Back(); el != nil && c.order.Len() > c.capacity; {
		prev := el.Prev()
		node := el.Value.(*cacheNode)
		select {
		case <-node.fl.done:
			c.order.Remove(el)
			delete(c.entries, node.key)
			c.evictions++
		default: // still computing
		}
		el = prev
	}
}

// cacheStats is one consistent snapshot of the cache statistics.
type cacheStats struct {
	hits, misses, evictions, loads uint64
	entries                        int
}

// stats snapshots the cache statistics under the lock.
func (c *cache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{c.hits, c.misses, c.evictions, c.loads, c.order.Len()}
}

// insert seeds a completed entry, used when warming the cache from a
// snapshot. An existing slot for the key wins — live results (possibly
// in flight) are never replaced by persisted ones. The entry lands at
// the LRU front, so a snapshot is replayed oldest-first to preserve
// recency order.
func (c *cache) insert(key string, imp *core.Implementation) bool {
	fl := &flight{done: make(chan struct{}), imp: imp}
	close(fl.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = c.order.PushFront(&cacheNode{key: key, fl: fl})
	c.loads++
	c.evictLocked()
	return true
}

// snapshot returns the completed entries in eviction order (least
// recently used first), so replaying them through insert restores the
// recency order. In-flight computations are skipped: a snapshot taken
// mid-synthesis persists only finished results.
func (c *cache) snapshot() []cachestore.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	dst := make([]cachestore.Entry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		node := el.Value.(*cacheNode)
		select {
		case <-node.fl.done:
			if node.fl.err == nil && node.fl.imp != nil {
				dst = append(dst, cachestore.Entry{Key: node.key, Imp: node.fl.imp})
			}
		default: // still computing
		}
	}
	return dst
}
