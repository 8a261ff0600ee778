// S4: snapshot-shipping truncation crashes. A warm-start transfer that
// dies mid-stream — at ANY byte offset — must leave the receiver cold
// and typed: zero entries seeded, an error returned, never a
// half-loaded cache.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
)

// warmSnapshot builds an engine with a handful of synthesized entries
// and returns its serialized cache snapshot.
func warmSnapshot(t *testing.T) (int, []byte) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, CacheSize: 64})
	defer eng.Close()
	var reqs []engine.Request
	for i := 1; i <= 6; i++ {
		reqs = append(reqs, engine.Request{Kind: engine.KindSynthesize,
			Function: engine.FunctionSpec{TT: fmt.Sprintf("3:0x%02x", i)}})
	}
	for i, res := range submitBatch(context.Background(), eng, reqs) {
		if !res.Ok() {
			t.Fatalf("warm req %d: %v", i, res.Error)
		}
	}
	var buf bytes.Buffer
	n, err := eng.WriteCacheSnapshot(&buf)
	if err != nil || n != len(reqs) {
		t.Fatalf("WriteCacheSnapshot = %d, %v; want %d, nil", n, err, len(reqs))
	}
	return n, buf.Bytes()
}

// TestSnapshotTruncationEveryOffset replays the snapshot stream cut at
// every possible byte offset into a cold engine. Each prefix must be
// rejected wholesale; the full stream must load completely. One engine
// absorbs every attempt, which also proves failed loads don't
// accumulate partial state.
func TestSnapshotTruncationEveryOffset(t *testing.T) {
	entries, snap := warmSnapshot(t)

	cold := engine.New(engine.Config{Workers: 1, CacheSize: 64})
	defer cold.Close()
	for i := 0; i < len(snap); i++ {
		n, err := cold.ReadCacheSnapshot(bytes.NewReader(snap[:i]))
		if err == nil {
			t.Fatalf("offset %d/%d: truncated snapshot accepted", i, len(snap))
		}
		if n != 0 {
			t.Fatalf("offset %d/%d: seeded %d entries from truncated snapshot", i, len(snap), n)
		}
		if got := cold.Stats().CacheEntries; got != 0 {
			t.Fatalf("offset %d/%d: cache holds %d entries after rejected load", i, len(snap), got)
		}
	}

	n, err := cold.ReadCacheSnapshot(bytes.NewReader(snap))
	if err != nil || n != entries {
		t.Fatalf("full snapshot: ReadCacheSnapshot = %d, %v; want %d, nil", n, err, entries)
	}
}

// TestWarmStartTruncatedTransfer runs the same property over the wire:
// a donor whose snapshot stream aborts mid-transfer (connection torn
// down after half the bytes) must leave WarmStart failed and the
// receiver's cache empty.
func TestWarmStartTruncatedTransfer(t *testing.T) {
	_, snap := warmSnapshot(t)

	donor := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != cluster.SnapshotPath {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(snap[:len(snap)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Tear the connection down without finishing the body: the
		// receiver sees an unexpected EOF mid-gzip-stream.
		panic(http.ErrAbortHandler)
	}))
	defer donor.Close()

	eng := engine.New(engine.Config{Workers: 1, CacheSize: 64})
	defer eng.Close()
	node, err := cluster.New(eng, cluster.Config{
		NodeID: "b", Peers: map[string]string{"donor": donor.URL},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}

	n, from, err := node.WarmStart(context.Background())
	if err == nil {
		t.Fatalf("WarmStart accepted a truncated transfer: %d entries from %q", n, from)
	}
	if n != 0 {
		t.Fatalf("WarmStart seeded %d entries from truncated transfer", n)
	}
	if got := eng.Stats().CacheEntries; got != 0 {
		t.Fatalf("cache holds %d entries after failed warm-start", got)
	}
}
