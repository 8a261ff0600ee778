// Command xbarserverd serves the nanoxbar synthesis and per-chip
// mapping pipeline over HTTP. Synthesis results are cached in one LRU
// shared across requests (one core.Synthesize per distinct function
// × technology × options); per-chip mapping jobs fan out across a
// bounded worker pool. The handler lives in internal/httpapi; this
// command is flag parsing and lifecycle.
//
// The cache can persist across restarts: -cache-save checkpoints it to
// disk on shutdown (and every -cache-save-interval while running), and
// -cache-load seeds it at boot, so a restarted server answers
// previously-synthesized functions with pure cache hits. Snapshots are
// fingerprint-keyed; one written by a binary with different synthesis
// behavior is refused and the server starts cold.
//
// Endpoints:
//
//	POST /v2/jobs        any request kinds — NDJSON stream, results
//	                     flushed as workers finish; structured errors
//	GET  /healthz        liveness probe + uptime/build + cache summary
//	GET  /stats          engine counters (cache hits/misses, workers, ...)
//	GET  /metrics        Prometheus text exposition (latency histograms,
//	                     cache/fault counters, Go runtime stats)
//
// SIGINT and SIGTERM both shut down gracefully: the server stops
// admitting work (503 + Retry-After on the work routes; health and
// metrics stay up), lets in-flight requests and NDJSON streams finish
// (bounded at 10s), logs the drain duration, and checkpoints the cache
// after the drain so the snapshot holds every completed synthesis.
//
// Every request gets a request ID — honored from the client's
// X-Request-ID header or minted at ingress — echoed on the response,
// stamped on every stream frame, and attached to every log line. Access
// logs are structured (log/slog); -log-level debug additionally logs
// each engine request with its stage outcome.
//
// Cluster mode (-peers, -node-id, -advertise) joins N daemons into a
// consistent-hash serving tier: synthesis requests are routed to the
// node owning their cache key, cold cache slots are filled from the
// owner's cache before synthesizing locally, and a restarting node
// warm-starts by streaming a sibling's cache snapshot when its own
// disk snapshot yields nothing. Draining de-registers the node from
// peer rings via the /healthz cluster block. See DESIGN.md §14 and the
// README "Cluster mode" section.
//
// Usage:
//
//	xbarserverd [-addr :8080] [-workers N] [-cache 1024]
//	            [-cache-load path] [-cache-save path] [-cache-save-interval 5m]
//	            [-log-level info] [-log-format text] [-pprof]
//	            [-node-id a -advertise http://host:8080 -peers a=...,b=...,c=...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"nanoxbar/internal/cluster"
	"nanoxbar/internal/core"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
)

// parsePeers parses the -peers flag: a comma-separated id=url list,
// e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080". The list may
// include this node's own entry (every member can share one flag
// value); cluster.New skips it by id.
func parsePeers(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate -peers id %q", id)
		}
		out[id] = strings.TrimSuffix(url, "/")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q names no members", spec)
	}
	return out, nil
}

// buildLogger constructs the process logger from the flag values.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text|json)", format)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = NumCPU)")
	cacheSize := flag.Int("cache", 1024, "synthesis cache entries")
	cacheLoad := flag.String("cache-load", "", "seed the cache from this snapshot at boot")
	cacheSave := flag.String("cache-save", "", "checkpoint the cache to this path on shutdown")
	saveInterval := flag.Duration("cache-save-interval", 0, "also checkpoint every interval (0 = only on shutdown)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "log level (debug|info|warn|error); debug logs every engine request")
	logFormat := flag.String("log-format", "text", "log format (text|json)")
	nodeID := flag.String("node-id", "", "cluster member id (required with -peers)")
	advertise := flag.String("advertise", "", "base URL peers reach this node at (cluster mode)")
	peersSpec := flag.String("peers", "", "cluster peers as id=url,... (enables cluster mode)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbarserverd:", err)
		os.Exit(2)
	}

	eng := engine.New(engine.Config{
		Workers: *workers, CacheSize: *cacheSize, Logger: logger,
	})
	defer eng.Close()

	if *cacheLoad != "" {
		n, err := eng.LoadCacheSnapshot(*cacheLoad)
		if err != nil {
			// A bad or stale snapshot is not fatal: serve cold rather
			// than refuse traffic.
			fmt.Fprintln(os.Stderr, "xbarserverd: cache-load:", err, "(starting cold)")
		} else {
			fmt.Printf("xbarserverd: cache warmed with %d entries from %s\n", n, *cacheLoad)
		}
	}

	sopts := []httpapi.Option{httpapi.WithLogger(logger)}
	if *pprofOn {
		sopts = append(sopts, httpapi.WithPprof())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Cluster mode: join the static membership, serve the peer routes,
	// consult siblings' caches before cold synthesis, and — when the
	// disk snapshot produced nothing — warm-start from a sibling.
	var node *cluster.Node
	if *peersSpec != "" {
		if *nodeID == "" {
			fmt.Fprintln(os.Stderr, "xbarserverd: -peers requires -node-id")
			os.Exit(2)
		}
		peerMap, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarserverd:", err)
			os.Exit(2)
		}
		node, err = cluster.New(eng, cluster.Config{
			NodeID: *nodeID, Advertise: *advertise, Peers: peerMap, Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarserverd:", err)
			os.Exit(2)
		}
		eng.SetPeerFill(node.PeerFill)
		sopts = append(sopts, httpapi.WithCluster(node))
		go node.Run(ctx)
		if eng.Stats().CacheEntries == 0 {
			if n, from, err := node.WarmStart(ctx); err != nil {
				logger.Info("cluster warm-start unavailable, starting cold", "err", err)
			} else {
				fmt.Printf("xbarserverd: cache warmed with %d entries from peer %s\n", n, from)
			}
		}
	}

	api := httpapi.New(eng, sopts...)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		// No blanket write timeout: large yield sweeps legitimately run
		// long. The per-request bound is the scheme's MaxAttempts, and
		// v2 clients that hang up cancel their work via the request
		// context.
	}

	// checkpointMu serializes snapshot saves: without it an in-flight
	// interval checkpoint could finish after the shutdown checkpoint and
	// rename a stale snapshot over the final post-drain one.
	var checkpointMu sync.Mutex
	checkpoint := func(reason string) {
		if *cacheSave == "" {
			return
		}
		checkpointMu.Lock()
		defer checkpointMu.Unlock()
		n, err := eng.SaveCacheSnapshot(*cacheSave)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xbarserverd: cache-save:", err)
			return
		}
		fmt.Printf("xbarserverd: checkpointed %d cache entries to %s (%s)\n", n, *cacheSave, reason)
	}
	tickerDone := make(chan struct{})
	close(tickerDone)
	if *cacheSave != "" && *saveInterval > 0 {
		tickerDone = make(chan struct{})
		go func() {
			defer close(tickerDone)
			t := time.NewTicker(*saveInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					checkpoint("interval")
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	st := eng.Stats()
	fmt.Printf("xbarserverd listening on %s (workers=%d cache=%d fingerprint=%q)\n",
		*addr, st.Workers, *cacheSize, core.Fingerprint())

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "xbarserverd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	// SIGINT and SIGTERM take the same graceful path: mark the handler
	// draining first so new work is rejected typed (503 + Retry-After)
	// while in-flight requests — including open NDJSON streams — run to
	// completion, then close the listener and wait for them.
	drainStart := time.Now()
	if node != nil {
		// De-register from the ring first: peers probing /healthz during
		// the drain window see leaving=true and stop routing here
		// immediately instead of waiting out the suspicion timeout. Hold
		// the listener open for one probe round before Shutdown closes it
		// — without the grace, peers never get a successful probe of the
		// leaving flag and fall back to the slow suspicion path.
		node.Leave()
		time.Sleep(time.Second)
	}
	api.Drain()
	logger.Info("draining", "reason", "signal")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	logger.Info("drained", "duration", time.Since(drainStart).String(),
		"complete", err == nil)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "xbarserverd: shutdown:", err)
	}
	// Final checkpoint after the listener has drained (and the interval
	// ticker has stopped): every completed request's synthesis is in the
	// snapshot, and no stale interval save can land after it.
	<-tickerDone
	checkpoint("shutdown")
}
