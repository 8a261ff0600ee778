// Cluster soak mode: -cluster N boots N in-process cluster nodes
// (engine + cluster.Node + httpapi, each on its own loopback port) and
// drives the regular scenario mix against node n0 while a chaos
// schedule kills node n1 abruptly in the middle of a streaming yield
// sweep, then restarts it on the same port under load and warm-starts
// its cache from a peer snapshot. Node-to-node traffic (probes, fills,
// forwards, snapshots) runs through a seeded resilience.ChaosTransport
// to model partitions.
//
// The run fails when any client-facing error is untyped — including
// the error the dedicated kill-victim stream observes — or when any
// surviving node's /metrics reports a recovered panic. Routing and
// fill counters summed across the surviving nodes are emitted as the
// Soak/cluster pseudo-benchmark (NsPerOp = p50 across all scenario
// latencies) with a Soak/cluster/p99 companion so benchjson -compare
// gates both quantiles.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"nanoxbar/internal/benchreport"
	"nanoxbar/internal/cluster"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/httpapi"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar"
	nbclient "nanoxbar/pkg/nanoxbar/client"
)

// clusterVictim is the node the chaos schedule kills and restarts. The
// soak client only ever dials n0, so n0 is never a victim.
const clusterVictim = "n1"

// clusterMember is one live node of the in-process cluster.
type clusterMember struct {
	id     string
	eng    *engine.Engine
	node   *cluster.Node
	srv    *http.Server
	cancel context.CancelFunc // stops node.Run's heartbeat loop

	// serving is held shared by every running HTTP handler. kill takes
	// it exclusively after closing the server, so no handler still
	// running on a dropped connection can submit to the engine while
	// it closes; dead turns away any handler that starts later.
	serving sync.RWMutex
	dead    bool
}

// clusterHarness owns the N-node in-process cluster and the kill/
// restart chronology observed during the soak.
type clusterHarness struct {
	n         int
	seed      int64
	workers   int
	cacheSize int
	peers     map[string]string // id → base URL (stable across restarts)
	addrs     map[string]string // id → listen address (rebound on restart)

	mu          sync.Mutex
	members     map[string]*clusterMember // live nodes only
	kills       int
	restarts    int
	killTyped   int      // victim-stream failures that surfaced typed
	killUntyped int      // victim-stream failures that did not (bugs)
	killErrs    []string // the untyped errors, for the failure report
	restartErr  string   // non-empty when the restart itself failed
	warmEntries int
	warmFrom    string
	warmErr     string
}

// startClusterHarness listens for all N nodes first — so every node's
// Peers map holds real URLs — then starts them.
func startClusterHarness(n, workers, cacheSize int, seed int64) (*clusterHarness, error) {
	ch := &clusterHarness{
		n:         n,
		seed:      seed,
		workers:   workers,
		cacheSize: cacheSize,
		peers:     make(map[string]string),
		addrs:     make(map[string]string),
		members:   make(map[string]*clusterMember),
	}
	lns := make(map[string]net.Listener)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns[id] = ln
		ch.addrs[id] = ln.Addr().String()
		ch.peers[id] = "http://" + ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		if err := ch.startMember(i, id, lns[id]); err != nil {
			ch.close()
			return nil, err
		}
	}
	return ch, nil
}

// startMember boots one node on ln: engine, cluster membership with a
// seeded chaos transport on the peer links, peer-fill hook, HTTP
// surface with the cluster routes, and the heartbeat loop.
func (ch *clusterHarness) startMember(i int, id string, ln net.Listener) error {
	eng := engine.New(engine.Config{Workers: ch.workers, CacheSize: ch.cacheSize})
	// Partition model: every node-to-node request can be dropped or
	// delayed. Rates stay low so warm-start snapshots usually land on
	// the first or second donor; the failure detector and per-endpoint
	// breakers absorb the rest.
	chaosT := resilience.NewChaosTransport(nil, resilience.ChaosConfig{
		Seed:        ch.seed + int64(i+1)*0x9e3779b9,
		DropRate:    0.02,
		LatencyRate: 0.05,
		LatencyMin:  time.Millisecond,
		LatencyMax:  5 * time.Millisecond,
	})
	node, err := cluster.New(eng, cluster.Config{
		NodeID:    id,
		Advertise: ch.peers[id],
		Peers:     ch.peers,
		// Fast enough that a 5s CI soak sees alive→suspect→dead→alive.
		ProbeInterval: 100 * time.Millisecond,
		Seed:          ch.seed + int64(i),
		HTTPClient:    &http.Client{Transport: chaosT},
	})
	if err != nil {
		eng.Close()
		return err
	}
	eng.SetPeerFill(node.PeerFill)
	runCtx, cancel := context.WithCancel(context.Background())
	m := &clusterMember{id: id, eng: eng, node: node, cancel: cancel}
	api := httpapi.New(eng, httpapi.WithCluster(node))
	m.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.serving.RLock()
		defer m.serving.RUnlock()
		if m.dead {
			panic(http.ErrAbortHandler) // killed: drop the connection
		}
		api.ServeHTTP(w, r)
	})}
	go node.Run(runCtx)
	go m.srv.Serve(ln)
	ch.mu.Lock()
	ch.members[id] = m
	ch.mu.Unlock()
	return nil
}

// kill tears a node down abruptly — http.Server.Close drops in-flight
// connections mid-stream, the crash model (vs close's graceful drain).
func (ch *clusterHarness) kill(id string) {
	ch.mu.Lock()
	m := ch.members[id]
	delete(ch.members, id)
	if m != nil {
		ch.kills++
	}
	ch.mu.Unlock()
	if m == nil {
		return
	}
	m.cancel()
	m.srv.Close()
	m.serving.Lock()
	m.dead = true
	m.serving.Unlock()
	m.eng.Close()
}

// restart rebinds the victim's original port (so peers' static URLs
// keep working), boots a fresh node with an empty cache, and
// warm-starts it from a peer snapshot — no local snapshot file exists.
func (ch *clusterHarness) restart(ctx context.Context, i int, id string) error {
	var ln net.Listener
	var err error
	deadline := time.Now().Add(3 * time.Second)
	for {
		ln, err = net.Listen("tcp", ch.addrs[id])
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("rebind %s: %w", ch.addrs[id], err)
	}
	if err := ch.startMember(i, id, ln); err != nil {
		return err
	}
	ch.mu.Lock()
	m := ch.members[id]
	ch.restarts++
	ch.mu.Unlock()

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var entries int
	var from string
	for attempt := 0; attempt < 3; attempt++ {
		if entries, from, err = m.node.WarmStart(wctx); err == nil {
			break
		}
	}
	ch.mu.Lock()
	if err != nil {
		ch.warmErr = err.Error() // chaos can drop every donor; warn, don't fail
	} else {
		ch.warmEntries = entries
		ch.warmFrom = from
	}
	ch.mu.Unlock()
	return nil
}

// killMidSweep opens a dedicated yield-sweep stream straight at the
// victim and kills it after the third die event, so the kill lands
// mid-NDJSON-stream deterministically. The stream's error must be
// typed — that is the contract under test.
func (ch *clusterHarness) killMidSweep(ctx context.Context, id string, cfg soakConfig) {
	cl := nbclient.New(ch.peers[id])
	defer cl.Close()
	// The sweep must still be producing when the kill lands: a small
	// sweep finishes (and buffers every frame in the socket) before the
	// client has even processed die 3, and the "mid-stream" kill
	// degrades to a clean completion. 20k dies is hundreds of
	// milliseconds of production against microseconds to the kill.
	const chips = 20000
	seen := 0
	_, err := cl.YieldSweep(ctx, nanoxbar.TT("4:0x1be4"),
		nanoxbar.WithSeed(cfg.seed),
		nanoxbar.WithDensity(cfg.density),
		nanoxbar.WithChips(chips),
		nanoxbar.WithMaxAttempts(cfg.maxAttempts),
		nanoxbar.OnDie(func(nanoxbar.Die) {
			if seen++; seen == 3 {
				ch.kill(id)
			}
		}))
	ch.mu.Lock()
	defer ch.mu.Unlock()
	switch {
	case err == nil:
		// The sweep outran the kill; the node still died under load.
	case errors.Is(err, nanoxbar.ErrUnavailable), errors.Is(err, nanoxbar.ErrCanceled):
		ch.killTyped++
	default:
		ch.killUntyped++
		ch.killErrs = append(ch.killErrs, err.Error())
	}
}

// runChaos is the kill/restart schedule: kill the victim mid-stream at
// ~40% of the soak, restart it under load at ~70%.
func (ch *clusterHarness) runChaos(ctx context.Context, cfg soakConfig) {
	select {
	case <-ctx.Done():
		return
	case <-time.After(cfg.duration * 2 / 5):
	}
	ch.killMidSweep(ctx, clusterVictim, cfg)
	select {
	case <-ctx.Done():
		return
	case <-time.After(cfg.duration * 3 / 10):
	}
	if err := ch.restart(ctx, 1, clusterVictim); err != nil {
		ch.mu.Lock()
		ch.restartErr = err.Error()
		ch.mu.Unlock()
	}
}

// statusSum adds the routing/fill counters across surviving nodes.
func (ch *clusterHarness) statusSum() cluster.Status {
	ch.mu.Lock()
	members := make([]*clusterMember, 0, len(ch.members))
	for _, m := range ch.members {
		members = append(members, m)
	}
	ch.mu.Unlock()
	var sum cluster.Status
	for _, m := range members {
		st := m.node.Status()
		sum.PeerFillHits += st.PeerFillHits
		sum.PeerFillMisses += st.PeerFillMisses
		sum.Forwards += st.Forwards
		sum.Failovers += st.Failovers
		sum.LocalDegrades += st.LocalDegrades
	}
	return sum
}

// panicsObserved scrapes every surviving node's /metrics for the
// recovered-panic counter; an unreadable scrape is itself a failure —
// the soak's zero-panic claim would be vacuous without the evidence.
func (ch *clusterHarness) panicsObserved(ctx context.Context) (int, error) {
	ch.mu.Lock()
	urls := make(map[string]string, len(ch.members))
	for id := range ch.members {
		urls[id] = ch.peers[id]
	}
	ch.mu.Unlock()
	total := 0
	for id, url := range urls {
		exp := scrapeMetrics(ctx, url)
		if exp == nil {
			return 0, fmt.Errorf("node %s: /metrics unreadable", id)
		}
		v, ok := exp.Value("nanoxbar_http_panics_total", nil)
		if !ok {
			return 0, fmt.Errorf("node %s: no panic counter in /metrics", id)
		}
		total += int(v)
	}
	return total, nil
}

// benchmarks shapes the cluster soak as two pseudo-benchmarks:
// Soak/cluster (NsPerOp = p50 across every scenario latency, plus the
// routing/fill/chaos counters) and Soak/cluster/p99 (NsPerOp = p99) so
// the CI gate compares both quantiles as first-class ns/op values.
func (ch *clusterHarness) benchmarks(res *soakResult, duration time.Duration) []benchreport.Benchmark {
	res.mu.Lock()
	var all []time.Duration
	for _, lats := range res.latencies {
		all = append(all, lats...)
	}
	res.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := percentile(all, 0.50)
	p99 := percentile(all, 0.99)

	st := ch.statusSum()
	ch.mu.Lock()
	m := map[string]float64{
		"nodes":            float64(ch.n),
		"ops":              float64(len(all)),
		"p50-ns":           float64(p50.Nanoseconds()),
		"p99-ns":           float64(p99.Nanoseconds()),
		"forwards":         float64(st.Forwards),
		"failovers":        float64(st.Failovers),
		"peer-fill-hits":   float64(st.PeerFillHits),
		"peer-fill-misses": float64(st.PeerFillMisses),
		"local-degrades":   float64(st.LocalDegrades),
		"kills":            float64(ch.kills),
		"restarts":         float64(ch.restarts),
		"kill-typed":       float64(ch.killTyped),
		"warm-entries":     float64(ch.warmEntries),
	}
	ch.mu.Unlock()
	return []benchreport.Benchmark{
		{
			Pkg:        "nanoxbar/cmd/xbarload",
			Name:       "Soak/cluster",
			Iterations: int64(len(all)),
			NsPerOp:    float64(p50.Nanoseconds()),
			Metrics:    m,
		},
		{
			Pkg:        "nanoxbar/cmd/xbarload",
			Name:       "Soak/cluster/p99",
			Iterations: int64(len(all)),
			NsPerOp:    float64(p99.Nanoseconds()),
			Metrics:    map[string]float64{"p99-ns": float64(p99.Nanoseconds())},
		},
	}
}

// verdict prints the cluster chronology and returns false when the
// soak violated an invariant: an untyped kill-stream error, a failed
// restart, or a recovered panic on any surviving node.
func (ch *clusterHarness) verdict(ctx context.Context) bool {
	ch.mu.Lock()
	kills, restarts := ch.kills, ch.restarts
	killTyped, killUntyped := ch.killTyped, ch.killUntyped
	killErrs := append([]string(nil), ch.killErrs...)
	restartErr, warmErr := ch.restartErr, ch.warmErr
	warmEntries, warmFrom := ch.warmEntries, ch.warmFrom
	ch.mu.Unlock()

	st := ch.statusSum()
	fmt.Fprintf(os.Stderr,
		"xbarload: cluster: %d kill(s) %d restart(s), victim stream %d typed / %d untyped; forwards %d (failovers %d), fills %d hit / %d miss, local degrades %d\n",
		kills, restarts, killTyped, killUntyped,
		st.Forwards, st.Failovers, st.PeerFillHits, st.PeerFillMisses, st.LocalDegrades)
	ok := true
	if killUntyped > 0 {
		for _, e := range killErrs {
			fmt.Fprintf(os.Stderr, "xbarload: cluster: UNTYPED kill-stream error: %s\n", e)
		}
		ok = false
	}
	if restartErr != "" {
		fmt.Fprintf(os.Stderr, "xbarload: cluster: restart failed: %s\n", restartErr)
		ok = false
	} else if warmErr != "" {
		fmt.Fprintf(os.Stderr, "xbarload: cluster: warm start degraded (cold restart): %s\n", warmErr)
	} else if restarts > 0 {
		fmt.Fprintf(os.Stderr, "xbarload: cluster: %s warm-started with %d entries from %s\n",
			clusterVictim, warmEntries, warmFrom)
	}
	if panics, err := ch.panicsObserved(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "xbarload: cluster:", err)
		ok = false
	} else if panics > 0 {
		fmt.Fprintf(os.Stderr, "xbarload: cluster: %d recovered panic(s) across surviving nodes\n", panics)
		ok = false
	}
	return ok
}

// close drains every surviving node gracefully: Leave first so peers
// probing the drain see an intentional departure, then shut down.
func (ch *clusterHarness) close() {
	ch.mu.Lock()
	members := make([]*clusterMember, 0, len(ch.members))
	for _, m := range ch.members {
		members = append(members, m)
	}
	ch.members = make(map[string]*clusterMember)
	ch.mu.Unlock()
	for _, m := range members {
		m.node.Leave()
		m.cancel()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		m.srv.Shutdown(ctx)
		cancel()
		m.eng.Close()
	}
}
