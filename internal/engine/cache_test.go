package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"nanoxbar/internal/core"
)

// fakeImp builds a distinguishable implementation without running
// synthesis.
func fakeImp(id int) *core.Implementation {
	return &core.Implementation{Rows: id, Cols: 1, Method: "fake"}
}

// hexKey builds a realistic cache key (64 hex chars, like core.CacheKey
// output) from an integer id.
func hexKey(id int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", id)))
	return hex.EncodeToString(sum[:])
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(8)
	var calls atomic.Int64
	const goroutines = 64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	results := make([]*core.Implementation, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			imp, err, _ := c.getOrCompute("k", func() (*core.Implementation, error) {
				calls.Add(1)
				return fakeImp(7), nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			results[g] = imp
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", got)
	}
	for g, imp := range results {
		if imp != results[0] {
			t.Fatalf("goroutine %d got a different instance", g)
		}
	}
	st := c.stats()
	if st.misses != 1 || st.hits != goroutines-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", st.hits, st.misses, goroutines-1)
	}
	if st.entries != 1 {
		t.Fatalf("entries=%d, want 1", st.entries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(3)
	get := func(key string, id int) {
		t.Helper()
		imp, err, _ := c.getOrCompute(key, func() (*core.Implementation, error) {
			return fakeImp(id), nil
		})
		if err != nil || imp.Rows != id {
			t.Fatalf("get(%s): imp=%v err=%v", key, imp, err)
		}
	}
	// Recompute on re-miss must yield the recomputed value.
	get("a", 1)
	get("b", 2)
	get("c", 3)
	get("a", 1) // refresh a: LRU order b, c, a
	get("d", 4) // evicts b
	if n := c.stats().entries; n != 3 {
		t.Fatalf("entries=%d, want 3", n)
	}
	var recomputed bool
	c.getOrCompute("b", func() (*core.Implementation, error) {
		recomputed = true
		return fakeImp(2), nil
	})
	if !recomputed {
		t.Fatal("evicted key b still cached")
	}
	c.getOrCompute("a", func() (*core.Implementation, error) {
		t.Fatal("recently used key a was evicted")
		return nil, nil
	})
	if ev := c.stats().evictions; ev < 2 {
		t.Fatalf("evictions=%d, want >=2", ev)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := newCache(4)
	boom := fmt.Errorf("boom")
	_, err, hit := c.getOrCompute("k", func() (*core.Implementation, error) { return nil, boom })
	if err != boom || hit {
		t.Fatalf("first call: err=%v hit=%v", err, hit)
	}
	imp, err, hit := c.getOrCompute("k", func() (*core.Implementation, error) { return fakeImp(1), nil })
	if err != nil || hit || imp.Rows != 1 {
		t.Fatalf("retry after error: imp=%v err=%v hit=%v", imp, err, hit)
	}
	imp, err, hit = c.getOrCompute("k", func() (*core.Implementation, error) {
		t.Fatal("recomputed a cached success")
		return nil, nil
	})
	if err != nil || !hit || imp.Rows != 1 {
		t.Fatalf("third call: imp=%v err=%v hit=%v", imp, err, hit)
	}
}

func TestCacheConcurrentManyKeys(t *testing.T) {
	// Hammer a small cache with more keys than capacity from many
	// goroutines; every call must observe its own key's value.
	c := newCache(4)
	const goroutines, rounds, keys = 16, 200, 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := (g + r) % keys
				key := fmt.Sprintf("k%d", id)
				imp, err, _ := c.getOrCompute(key, func() (*core.Implementation, error) {
					return fakeImp(id), nil
				})
				if err != nil || imp.Rows != id {
					t.Errorf("key %s returned imp=%v err=%v", key, imp, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if entries := c.stats().entries; entries > 4 {
		t.Fatalf("cache grew to %d entries, capacity 4", entries)
	}
}

func TestCacheSingleFlightPerKey(t *testing.T) {
	c := newCache(256)
	const keys, goroutinesPerKey = 32, 8
	var calls atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := hexKey(k)
		id := k
		for g := 0; g < goroutinesPerKey; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				imp, err, _ := c.getOrCompute(key, func() (*core.Implementation, error) {
					calls.Add(1)
					return fakeImp(id), nil
				})
				if err != nil || imp.Rows != id {
					t.Errorf("key %d: imp=%v err=%v", id, imp, err)
				}
			}()
		}
	}
	wg.Wait()
	if got := calls.Load(); got != keys {
		t.Fatalf("compute ran %d times, want once per key (%d)", got, keys)
	}
	st := c.stats()
	if st.misses != keys || st.hits != keys*(goroutinesPerKey-1) {
		t.Fatalf("hits=%d misses=%d, want %d/%d", st.hits, st.misses, keys*(goroutinesPerKey-1), keys)
	}
	if st.entries != keys {
		t.Fatalf("entries=%d, want %d", st.entries, keys)
	}
}

func TestCacheInsertAndSnapshot(t *testing.T) {
	c := newCache(64)
	// Live result wins over a snapshot insert for the same key.
	key := hexKey(1)
	c.getOrCompute(key, func() (*core.Implementation, error) { return fakeImp(10), nil })
	if c.insert(key, fakeImp(99)) {
		t.Fatal("insert replaced a live entry")
	}
	if !c.insert(hexKey(2), fakeImp(20)) {
		t.Fatal("insert of a fresh key failed")
	}
	imp, err, hit := c.getOrCompute(key, func() (*core.Implementation, error) {
		t.Fatal("live entry recomputed")
		return nil, nil
	})
	if err != nil || !hit || imp.Rows != 10 {
		t.Fatalf("lookup after insert: imp=%v err=%v hit=%v", imp, err, hit)
	}
	imp, err, hit = c.getOrCompute(hexKey(2), func() (*core.Implementation, error) {
		t.Fatal("inserted entry recomputed")
		return nil, nil
	})
	if err != nil || !hit || imp.Rows != 20 {
		t.Fatalf("lookup of inserted key: imp=%v err=%v hit=%v", imp, err, hit)
	}
	if st := c.stats(); st.loads != 1 || st.entries != 2 {
		t.Fatalf("loads=%d entries=%d, want 1/2", st.loads, st.entries)
	}
	// Snapshot order is least recently used first: key 1 was touched
	// before key 2.
	snap := c.snapshot()
	if len(snap) != 2 || snap[0].Key != key || snap[1].Key != hexKey(2) {
		t.Fatalf("snapshot %+v, want keys 1 then 2", snap)
	}
	for _, e := range snap {
		if e.Imp == nil {
			t.Fatalf("snapshot entry incomplete: %+v", e)
		}
	}
}

func TestCacheSnapshotSkipsInFlight(t *testing.T) {
	c := newCache(64)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.getOrCompute(hexKey(1), func() (*core.Implementation, error) {
		close(started)
		<-release
		return fakeImp(1), nil
	})
	<-started
	c.insert(hexKey(2), fakeImp(2))
	snap := c.snapshot()
	close(release)
	if len(snap) != 1 || snap[0].Imp.Rows != 2 {
		t.Fatalf("snapshot %v, want only the completed entry", snap)
	}
}

// BenchmarkEngineCacheContention measures hit-path throughput of the
// synthesis cache under parallel load. The serving daemon's steady
// state is exactly this: every worker hitting the cache with
// already-synthesized keys, all behind the one cache mutex.
func BenchmarkEngineCacheContention(b *testing.B) {
	const numKeys = 1024
	keys := make([]string, numKeys)
	for i := range keys {
		keys[i] = hexKey(i)
	}
	imp := fakeImp(1)
	c := newCache(2 * numKeys)
	for _, k := range keys {
		c.getOrCompute(k, func() (*core.Implementation, error) { return imp, nil })
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i&(numKeys-1)]
			i++
			_, err, hit := c.getOrCompute(k, func() (*core.Implementation, error) { return imp, nil })
			if err != nil || !hit {
				b.Fatalf("hit path missed: err=%v hit=%v", err, hit)
			}
		}
	})
}
