// Package discovery implements peer and pipe discovery for the Consumer
// Grid in the three styles the paper contrasts (§3.7, §4 and ref [7]):
//
//   - Rendezvous: edge peers publish advertisements to rendezvous peers
//     and queries are answered from the rendezvous caches — the JXTA
//     model Triana relies on.
//   - Flood: queries propagate peer-to-peer with a TTL, Gnutella-style;
//     the paper notes this "severely restricts the scalability of such
//     approaches".
//   - Central: a single index server, the Napster model ("Napster is not
//     a true P2P system since the availability of peers is located
//     through a central database").
//
// All three run over the same jxtaserve transport abstraction, so the
// identical protocol code is exercised over TCP, in-process channels and
// the instrumented simnet transport used by the scaling experiment (T2).
package discovery

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
)

// Mode selects the discovery strategy.
type Mode int

// The strategies compared in experiment T2.
const (
	// ModeRendezvous publishes to a home rendezvous (by peer-ID hash) and
	// queries every rendezvous.
	ModeRendezvous Mode = iota
	// ModeFlood floods queries to neighbours with a TTL.
	ModeFlood
	// ModeCentral is ModeRendezvous with a single index server.
	ModeCentral
	// ModeOverlay delegates publish and discovery to the replicated
	// super-peer ring of internal/overlay (Config.Overlay).
	ModeOverlay
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeRendezvous:
		return "rendezvous"
	case ModeFlood:
		return "flood"
	case ModeCentral:
		return "central"
	case ModeOverlay:
		return "overlay"
	default:
		return "unknown"
	}
}

// RPC method names.
const (
	methodPublish = "disc.publish"
	methodQuery   = "disc.query"
	methodDeliver = "disc.deliver"
)

// Config configures a discovery node.
type Config struct {
	Mode Mode
	// Rendezvous lists rendezvous/central server addresses (rendezvous
	// and central modes).
	Rendezvous []string
	// Neighbors lists initial flood neighbours (flood mode).
	Neighbors []string
	// TTL bounds flood propagation (default 4).
	TTL int
	// QueryTimeout bounds how long a flood query waits for deliveries
	// (default 500ms).
	QueryTimeout time.Duration
	// IsRendezvous marks this node as accepting publishes (rendezvous
	// and central modes).
	IsRendezvous bool
	// Placement overrides the home-rendezvous choice with a shared
	// placement function (typically overlay.Ring.Primary over the
	// Rendezvous list). When nil, flat mode falls back to the legacy
	// hash-modulo pick — see homeRendezvous for why that remaps nearly
	// every peer whenever the rendezvous list changes.
	Placement func(key string) string
	// Overlay is the super-peer client Publish/Discover delegate to in
	// ModeOverlay. Required for that mode.
	Overlay *overlay.Client
	// SeenCapacity bounds the flood-dedup FIFO (default maxSeen);
	// tests shrink it to exercise eviction.
	SeenCapacity int
}

// Stats counts protocol traffic for the scalability experiments.
type Stats struct {
	// QueriesSent counts Discover invocations' outbound query RPCs.
	QueriesSent atomic.Int64
	// QueriesHandled counts query RPCs processed by this node.
	QueriesHandled atomic.Int64
	// QueriesForwarded counts flood re-transmissions.
	QueriesForwarded atomic.Int64
	// Delivered counts advert deliveries sent back to originators.
	Delivered atomic.Int64
	// Published counts publish RPCs sent.
	Published atomic.Int64
}

// Node is one peer's discovery agent.
type Node struct {
	host  *jxtaserve.Host
	cache *advert.Cache
	cfg   Config
	stats Stats

	mu        sync.Mutex
	neighbors []string
	seen      *seenRing // flood query IDs already handled
	pending   map[string]*pendingQuery
	nextQID   uint64
}

// seenRing is a bounded FIFO set of flood query IDs: O(1) membership
// via the map, strict insertion-order eviction via the circular buffer,
// so a recent ID is never evicted before a staler one and the ring
// never holds more than capacity IDs. Storage grows with use up to
// capacity: a node that never floods — overlay and rendezvous peers,
// most of a large simulated grid — must not pay for capacity slots.
type seenRing struct {
	ids  []string // insertion order; grows to capacity, then wraps
	set  map[string]struct{}
	cap  int
	next int // once full, the slot the next insertion overwrites
}

func newSeenRing(capacity int) *seenRing {
	if capacity <= 0 {
		capacity = maxSeen
	}
	return &seenRing{set: make(map[string]struct{}), cap: capacity}
}

// observe records id, reporting whether it was already present. When
// the ring is full the oldest ID is evicted first.
func (r *seenRing) observe(id string) (dup bool) {
	if _, ok := r.set[id]; ok {
		return true
	}
	if len(r.ids) < r.cap {
		if len(r.ids) == cap(r.ids) {
			// Grow by doubling, clamped so the buffer never exceeds
			// capacity slots.
			grown := make([]string, len(r.ids), min(max(2*len(r.ids), 16), r.cap))
			copy(grown, r.ids)
			r.ids = grown
		}
		r.ids = append(r.ids, id)
	} else {
		delete(r.set, r.ids[r.next])
		r.ids[r.next] = id
		r.next = (r.next + 1) % r.cap
	}
	r.set[id] = struct{}{}
	return false
}

// has reports membership without recording.
func (r *seenRing) has(id string) bool {
	_, ok := r.set[id]
	return ok
}

// len reports the live entry count.
func (r *seenRing) len() int { return len(r.ids) }

type pendingQuery struct {
	mu      sync.Mutex
	results []*advert.Advertisement
	ids     map[string]bool
	done    chan struct{}
	limit   int
	closed  bool
}

// maxSeen bounds the flood-dedup memory.
const maxSeen = 65536

// NewNode attaches a discovery agent to a host. The node registers its
// RPC handlers immediately.
func NewNode(host *jxtaserve.Host, cache *advert.Cache, cfg Config) *Node {
	if cfg.TTL <= 0 {
		cfg.TTL = 4
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 500 * time.Millisecond
	}
	n := &Node{
		host: host, cache: cache, cfg: cfg,
		neighbors: append([]string(nil), cfg.Neighbors...),
		seen:      newSeenRing(cfg.SeenCapacity),
		pending:   make(map[string]*pendingQuery),
	}
	host.Handle(methodPublish, n.handlePublish)
	host.Handle(methodQuery, n.handleQuery)
	host.Handle(methodDeliver, n.handleDeliver)
	return n
}

// Stats exposes the node's traffic counters.
func (n *Node) Stats() *Stats { return &n.stats }

// Cache exposes the node's advert cache.
func (n *Node) Cache() *advert.Cache { return n.cache }

// AddNeighbor adds a flood neighbour at runtime.
func (n *Node) AddNeighbor(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range n.neighbors {
		if a == addr {
			return
		}
	}
	n.neighbors = append(n.neighbors, addr)
}

// Neighbors returns a copy of the neighbour list.
func (n *Node) Neighbors() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]string(nil), n.neighbors...)
}

// Publish stores the advert locally and, in rendezvous/central mode,
// pushes it to the home rendezvous.
func (n *Node) Publish(ad *advert.Advertisement) error {
	if err := n.cache.Put(ad); err != nil {
		return err
	}
	switch n.cfg.Mode {
	case ModeRendezvous, ModeCentral:
		home := n.homeRendezvous(ad.PeerID)
		if home == "" {
			return nil // we are the rendezvous (or standalone)
		}
		b, err := ad.MarshalText()
		if err != nil {
			return err
		}
		n.stats.Published.Add(1)
		_, err = n.host.Request(home, methodPublish, b, nil)
		return err
	case ModeOverlay:
		if n.cfg.Overlay == nil {
			return fmt.Errorf("discovery: ModeOverlay without Config.Overlay")
		}
		n.stats.Published.Add(1)
		return n.cfg.Overlay.Publish(ad)
	default:
		return nil // flood mode answers from local caches
	}
}

// homeRendezvous picks the publishing target for a peer ID, or "" when
// this node has no rendezvous configured.
//
// When Config.Placement is set (the overlay deployments route it to the
// consistent-hash ring's Primary), the flat and overlay paths share one
// placement function. The legacy fallback is hash(peerID) mod
// len(Rendezvous) — beware that modulo placement has no stability under
// membership change: growing the list from k to k+1 servers moves every
// peer whose hash differs mod k and mod k+1, i.e. an expected k/(k+1)
// of them (~all), orphaning their published adverts until re-publish.
// A consistent-hash ring moves only ~1/(k+1). TestModuloRemapsNearlyAll
// pins both behaviours.
func (n *Node) homeRendezvous(peerID string) string {
	if len(n.cfg.Rendezvous) == 0 {
		return ""
	}
	if n.cfg.Placement != nil {
		if home := n.cfg.Placement(peerID); home != "" {
			return home
		}
	}
	h := fnv.New32a()
	h.Write([]byte(peerID))
	return n.cfg.Rendezvous[int(h.Sum32())%len(n.cfg.Rendezvous)]
}

// Discover runs a query and returns up to limit matches (limit <= 0
// means unlimited). Local cache hits are always included.
func (n *Node) Discover(q advert.Query, limit int) ([]*advert.Advertisement, error) {
	local := n.cache.Find(q, limit)
	switch n.cfg.Mode {
	case ModeRendezvous, ModeCentral:
		return n.discoverRendezvous(q, limit, local)
	case ModeFlood:
		return n.discoverFlood(q, limit, local)
	case ModeOverlay:
		return n.discoverOverlay(q, limit, local)
	default:
		return nil, fmt.Errorf("discovery: unknown mode %d", n.cfg.Mode)
	}
}

// discoverOverlay merges local cache hits with the super-peer ring's
// answer.
func (n *Node) discoverOverlay(q advert.Query, limit int, acc []*advert.Advertisement) ([]*advert.Advertisement, error) {
	if n.cfg.Overlay == nil {
		return nil, fmt.Errorf("discovery: ModeOverlay without Config.Overlay")
	}
	n.stats.QueriesSent.Add(1)
	remote, err := n.cfg.Overlay.Query(q, limit)
	if err != nil {
		if len(acc) > 0 {
			return acc, nil // local knowledge beats a dead ring
		}
		return nil, err
	}
	seen := make(map[string]bool, len(acc))
	for _, ad := range acc {
		seen[ad.ID] = true
	}
	for _, ad := range remote {
		if !seen[ad.ID] {
			seen[ad.ID] = true
			acc = append(acc, ad)
		}
	}
	if limit > 0 && len(acc) > limit {
		acc = acc[:limit]
	}
	return acc, nil
}

func (n *Node) discoverRendezvous(q advert.Query, limit int, acc []*advert.Advertisement) ([]*advert.Advertisement, error) {
	qb, err := q.MarshalText()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(acc))
	for _, ad := range acc {
		seen[ad.ID] = true
	}
	var firstErr error
	for _, addr := range n.cfg.Rendezvous {
		n.stats.QueriesSent.Add(1)
		reply, err := n.host.Request(addr, methodQuery, qb, nil)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // a dead rendezvous must not kill discovery
		}
		ads, err := advert.DecodeList(reply.Payload)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, ad := range ads {
			if !seen[ad.ID] {
				seen[ad.ID] = true
				acc = append(acc, ad)
			}
		}
		if limit > 0 && len(acc) >= limit {
			return acc[:limit], nil
		}
	}
	if len(acc) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return acc, nil
}

func (n *Node) discoverFlood(q advert.Query, limit int, acc []*advert.Advertisement) ([]*advert.Advertisement, error) {
	qb, err := q.MarshalText()
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.nextQID++
	qid := fmt.Sprintf("%s/%d", n.host.PeerID(), n.nextQID)
	pq := &pendingQuery{
		ids:   make(map[string]bool, len(acc)),
		done:  make(chan struct{}),
		limit: limit,
	}
	for _, ad := range acc {
		pq.ids[ad.ID] = true
	}
	n.pending[qid] = pq
	// The origin must not handle its own query when a neighbour echoes
	// it back: re-flooding it with the echo's lower TTL can reach a peer
	// ahead of the original copy, and the dedup then drops the copy that
	// would have gone further.
	n.seen.observe(qid)
	neighbors := append([]string(nil), n.neighbors...)
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.pending, qid)
		n.mu.Unlock()
	}()

	headers := map[string]string{
		"qid":    qid,
		"ttl":    fmt.Sprintf("%d", n.cfg.TTL),
		"origin": n.host.Addr(),
	}
	for _, addr := range neighbors {
		n.stats.QueriesSent.Add(1)
		// Errors are expected under churn: a gone neighbour just does not
		// answer.
		go n.host.Request(addr, methodQuery, qb, headers)
	}

	timer := time.NewTimer(n.cfg.QueryTimeout)
	defer timer.Stop()
	select {
	case <-pq.done:
	case <-timer.C:
	}
	pq.mu.Lock()
	defer pq.mu.Unlock()
	pq.closed = true
	out := append(acc, pq.results...)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// --- handlers ---------------------------------------------------------------

func (n *Node) handlePublish(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	if !n.cfg.IsRendezvous {
		return nil, fmt.Errorf("discovery: %s is not a rendezvous", n.host.PeerID())
	}
	var ad advert.Advertisement
	if err := ad.UnmarshalText(req.Payload); err != nil {
		return nil, err
	}
	if err := n.cache.Put(&ad); err != nil {
		return nil, err
	}
	return &jxtaserve.Message{}, nil
}

func (n *Node) handleQuery(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	n.stats.QueriesHandled.Add(1)
	var q advert.Query
	if err := q.UnmarshalText(req.Payload); err != nil {
		return nil, err
	}
	qid := req.Header("qid")
	if qid == "" {
		// Synchronous rendezvous-style query: answer from the cache.
		matches := n.cache.Find(q, 0)
		payload, err := advert.EncodeList(matches)
		if err != nil {
			return nil, err
		}
		return &jxtaserve.Message{Payload: payload}, nil
	}

	// Flood query: dedupe, deliver matches to the origin, forward.
	n.mu.Lock()
	if n.seen.observe(qid) {
		n.mu.Unlock()
		return &jxtaserve.Message{}, nil
	}
	neighbors := append([]string(nil), n.neighbors...)
	n.mu.Unlock()

	origin := req.Header("origin")
	if matches := n.cache.Find(q, 0); len(matches) > 0 && origin != "" {
		payload, err := advert.EncodeList(matches)
		if err == nil {
			n.stats.Delivered.Add(1)
			go n.host.Request(origin, methodDeliver, payload, map[string]string{"qid": qid})
		}
	}

	var ttl int
	fmt.Sscanf(req.Header("ttl"), "%d", &ttl)
	if ttl > 1 {
		headers := map[string]string{
			"qid":    qid,
			"ttl":    fmt.Sprintf("%d", ttl-1),
			"origin": origin,
		}
		for _, addr := range neighbors {
			n.stats.QueriesForwarded.Add(1)
			go n.host.Request(addr, methodQuery, req.Payload, headers)
		}
	}
	return &jxtaserve.Message{}, nil
}

func (n *Node) handleDeliver(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	qid := req.Header("qid")
	n.mu.Lock()
	pq := n.pending[qid]
	n.mu.Unlock()
	if pq == nil {
		return &jxtaserve.Message{}, nil // late delivery; drop
	}
	ads, err := advert.DecodeList(req.Payload)
	if err != nil {
		return nil, err
	}
	pq.mu.Lock()
	defer pq.mu.Unlock()
	if pq.closed {
		return &jxtaserve.Message{}, nil
	}
	for _, ad := range ads {
		if pq.ids[ad.ID] {
			continue
		}
		pq.ids[ad.ID] = true
		pq.results = append(pq.results, ad)
	}
	if pq.limit > 0 && len(pq.results) >= pq.limit && !pq.closed {
		pq.closed = true
		close(pq.done)
	}
	return &jxtaserve.Message{}, nil
}
