// Package cluster is the horizontal scale-out tier for xbarserverd: a
// static-membership cluster of nodes that partition the synthesis
// cache by consistent hashing over core.CacheKey, heartbeat each other
// over the existing HTTP surface, fill cold cache slots from the key's
// owner before synthesizing, and warm-start restarted nodes by
// shipping whole cache snapshots peer-to-peer.
//
// The headline property is graceful survival of node failure
// mid-workload: every remote interaction sits behind the failover
// ladder owner → fallback replica → local serving, so the worst case
// of any peer dying is local synthesis (slower, never wrong, never an
// untyped error). The Detector's membership state walks are driven
// exclusively by its resilience.Clock (the wall clock in a Node), which
// is what makes the alive→suspect→dead→alive ladder exactly testable
// with resilience.Fake — the same clock discipline xbarvet already
// enforces on the resilience package itself.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nanoxbar/internal/core"
	"nanoxbar/internal/engine"
	"nanoxbar/internal/resilience"
	"nanoxbar/pkg/nanoxbar/client"
)

// ForwardedHeader marks a synthesis request that already crossed one
// node-to-node hop. The receiving node serves it locally regardless of
// ring ownership — membership views can disagree transiently, and
// without the marker two nodes that each believe the other owns a key
// would forward it back and forth forever.
const ForwardedHeader = "X-Nanoxbar-Forwarded"

// Peer route paths, served by internal/httpapi behind the same
// protect/instrument middleware as the public surface.
const (
	FillPath     = "/internal/v1/peer/fill"
	SnapshotPath = "/internal/v1/peer/snapshot"
)

// Config wires a Node. NodeID and the Peers map are the static
// membership universe; liveness within it is the failure detector's
// job.
type Config struct {
	// NodeID is this node's unique member id (required).
	NodeID string
	// Advertise is the base URL peers use to reach this node,
	// e.g. "http://10.0.0.1:8080". Informational in Status; peers dial
	// the URL from their own Peers map.
	Advertise string
	// Peers maps member id → base URL for every *other* node. An entry
	// matching NodeID is ignored, so all nodes can share one flag value.
	Peers map[string]string

	// ProbeInterval is the heartbeat period (default 500ms). A peer
	// without a successful probe for 3 intervals is suspect, and after
	// 6 intervals it is dead and leaves the ring.
	ProbeInterval time.Duration
	// Seed feeds the retry jitter RNG.
	Seed int64
	// HTTPClient performs all node-to-node requests (default a fresh
	// client on the default transport). The cluster soak injects a
	// seeded resilience.ChaosTransport here to model partitions.
	HTTPClient *http.Client

	Logger *slog.Logger
}

// Failure-detector thresholds, in probe intervals without a successful
// heartbeat.
const (
	suspectProbes = 3
	deadProbes    = 6
)

// Peer round-trip budgets. A fill blocks a cold synthesis, so it must
// give up well before the caller's deadline and fall through to local
// compute.
const (
	probeTimeout    = time.Second
	fillTimeout     = 2 * time.Second
	snapshotTimeout = 30 * time.Second
)

// peerRetry is the peer-fill retry policy: fills race local synthesis,
// so the budget is deliberately tiny compared to the client-facing
// policy. peerBreaker configures the per-peer, per-endpoint circuit
// breakers; its zero value takes resilience's defaults (open after 5
// consecutive failures, 1s cooldown).
var (
	peerRetry   = resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	peerBreaker = resilience.BreakerConfig{}
)

// peerState is one remote member plus its per-endpoint breakers. Fill
// and forward trip independently: a peer whose cache lookups time out
// may still proxy full syntheses fine, and vice versa. api is the SDK
// client forwards travel through.
type peerState struct {
	id      string
	url     string
	api     *client.Client
	fill    *resilience.Breaker
	forward *resilience.Breaker
}

// forwardMarker stamps ForwardedHeader on every request a node forwards,
// so the receiving node serves it locally instead of forwarding again.
type forwardMarker struct {
	next http.RoundTripper
	from string
}

func (m forwardMarker) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(ForwardedHeader, m.from)
	return m.next.RoundTrip(req)
}

// Node is one cluster member: failure detector + hash ring + peer
// client, wrapped around the local engine.
type Node struct {
	id        string
	advertise string
	eng       *engine.Engine
	// clock is always resilience.Wall(); holding it as a field keeps
	// the clockdiscipline analyzer checking every Node method.
	clock  resilience.Clock
	logger *slog.Logger
	hc     *http.Client

	probeInterval time.Duration

	det     *Detector
	peers   map[string]*peerState
	retrier *resilience.Retrier

	ringMu      sync.RWMutex
	ring        *Ring
	ringVersion uint64

	leaving atomic.Bool

	peerFillHits   atomic.Uint64
	peerFillMisses atomic.Uint64
	forwards       atomic.Uint64
	failovers      atomic.Uint64
	localDegrades  atomic.Uint64
}

// New builds a Node around eng. The initial ring contains every
// configured member (peers start optimistically alive); Run starts the
// heartbeat loop that maintains it. New also registers the cluster
// metrics on the engine's telemetry registry.
func New(eng *engine.Engine, cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	clock := resilience.Wall()
	n := &Node{
		id:            cfg.NodeID,
		advertise:     cfg.Advertise,
		eng:           eng,
		clock:         clock,
		logger:        cfg.Logger,
		hc:            cfg.HTTPClient,
		probeInterval: cfg.ProbeInterval,
		peers:         make(map[string]*peerState),
		retrier:       resilience.NewRetrier(peerRetry, clock, cfg.Seed),
	}
	n.det = newDetector(clock, suspectProbes*cfg.ProbeInterval, deadProbes*cfg.ProbeInterval, func(id string, from, to State) {
		n.logger.Info("cluster member transition", "peer", id, "from", from.String(), "to", to.String())
	})
	// Forwards share the node's HTTP client (and so its transport,
	// chaos-injected or not), with the loop marker stamped on.
	next := cfg.HTTPClient.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	fwd := *cfg.HTTPClient
	fwd.Transport = forwardMarker{next: next, from: n.id}
	for id, url := range cfg.Peers {
		if id == n.id || id == "" || url == "" {
			continue
		}
		n.peers[id] = &peerState{
			id:      id,
			url:     url,
			api:     client.New(url, client.WithHTTPClient(&fwd)),
			fill:    resilience.NewBreaker(peerBreaker, clock, nil),
			forward: resilience.NewBreaker(peerBreaker, clock, nil),
		}
		n.det.add(id, url)
	}
	n.rebuildRing()
	n.registerMetrics(eng.Registry())
	return n, nil
}

// ID returns the node's member id.
func (n *Node) ID() string { return n.id }

// Leave de-registers the node from the ring ahead of a drain: local
// routing stops forwarding and filling, and peers that probe the
// /healthz cluster block while the process drains see leaving=true and
// drop this node from their rings immediately instead of waiting out
// the suspicion timeout.
func (n *Node) Leave() {
	if n.leaving.CompareAndSwap(false, true) {
		n.logger.Info("cluster leave", "node", n.id)
	}
}

// rebuildRing recomputes the ring from the detector's current view
// plus self (unless leaving).
func (n *Node) rebuildRing() {
	members := n.det.Ringable()
	if !n.leaving.Load() {
		members = append(members, n.id)
	}
	ring := NewRing(members)
	n.ringMu.Lock()
	n.ring = ring
	n.ringVersion = n.det.Version()
	n.ringMu.Unlock()
}

// currentRing returns the live ring.
func (n *Node) currentRing() *Ring {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

// refreshRing rebuilds the ring only when membership changed since the
// last build.
func (n *Node) refreshRing() {
	n.ringMu.RLock()
	stale := n.ringVersion != n.det.Version()
	n.ringMu.RUnlock()
	if stale {
		n.rebuildRing()
	}
}

// Run drives the heartbeat loop until ctx is done: probe every peer,
// age the detector, refresh the ring, sleep one probe interval. Call it
// in its own goroutine.
func (n *Node) Run(ctx context.Context) {
	for {
		n.probeAll(ctx)
		n.det.Tick()
		n.refreshRing()
		if err := n.clock.Sleep(ctx, n.probeInterval); err != nil {
			return
		}
	}
}

// probeAll heartbeats every peer concurrently, each bounded by
// probeTimeout.
func (n *Node) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			n.probe(ctx, p)
		}(p)
	}
	wg.Wait()
}

// probeBody is the slice of the /healthz response the prober reads.
type probeBody struct {
	Cluster struct {
		Leaving bool `json:"leaving"`
	} `json:"cluster"`
}

// probe runs one heartbeat against p and feeds the outcome to the
// detector. A peer that reports leaving is pinned dead on the spot.
func (n *Node) probe(ctx context.Context, p *peerState) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, p.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		n.det.Observe(p.id, false)
		return
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		n.det.Observe(p.id, false)
		return
	}
	var body probeBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		n.det.Observe(p.id, false)
		return
	}
	if body.Cluster.Leaving {
		n.det.MarkLeft(p.id)
		return
	}
	n.det.Observe(p.id, true)
}

// fillTargets resolves the peer-fill ladder for key: the owner first,
// then one fallback replica, both remote and ring-live. nil when the
// key is self-owned or the ring is (effectively) a singleton.
func (n *Node) fillTargets(key string) []*peerState {
	ring := n.currentRing()
	if ring == nil || ring.Size() <= 1 {
		return nil
	}
	owner, ok := ring.Owner(key)
	if !ok || owner == n.id {
		return nil
	}
	var out []*peerState
	for _, id := range ring.Replicas(key, 3) {
		if id == n.id {
			continue
		}
		if p, ok := n.peers[id]; ok {
			out = append(out, p)
		}
		if len(out) == 2 { // owner + one fallback
			break
		}
	}
	return out
}

// PeerFill is the engine cache-miss hook: before a cold synthesis, ask
// the key's owner (and on failure or breaker-open, one fallback
// replica) for its cached Implementation. Returns nil on any miss or
// failure — the engine then synthesizes locally, so this path can only
// ever make a cold miss cheaper, never fail it. Wire it with
// engine.SetPeerFill.
func (n *Node) PeerFill(ctx context.Context, key string) *core.Implementation {
	if n.leaving.Load() {
		return nil
	}
	targets := n.fillTargets(key)
	if len(targets) == 0 {
		return nil
	}
	for _, p := range targets {
		if imp := n.fillFrom(ctx, p, key); imp != nil {
			n.peerFillHits.Add(1)
			return imp
		}
	}
	n.peerFillMisses.Add(1)
	return nil
}

// Status is the cluster block surfaced in /healthz, /stats, and the
// xbarload cluster report.
type Status struct {
	NodeID         string         `json:"node_id"`
	Advertise      string         `json:"advertise,omitempty"`
	Leaving        bool           `json:"leaving"`
	RingMembers    int            `json:"ring_members"`
	Members        []MemberStatus `json:"members,omitempty"`
	PeerFillHits   uint64         `json:"peer_fill_hits"`
	PeerFillMisses uint64         `json:"peer_fill_misses"`
	Forwards       uint64         `json:"forwards"`
	Failovers      uint64         `json:"failovers"`
	LocalDegrades  uint64         `json:"local_degrades"`
}

// Status snapshots the node's cluster view.
func (n *Node) Status() Status {
	ring := n.currentRing()
	size := 0
	if ring != nil {
		size = ring.Size()
	}
	return Status{
		NodeID:         n.id,
		Advertise:      n.advertise,
		Leaving:        n.leaving.Load(),
		RingMembers:    size,
		Members:        n.det.Members(),
		PeerFillHits:   n.peerFillHits.Load(),
		PeerFillMisses: n.peerFillMisses.Load(),
		Forwards:       n.forwards.Load(),
		Failovers:      n.failovers.Load(),
		LocalDegrades:  n.localDegrades.Load(),
	}
}
