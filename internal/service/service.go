// Package service implements the Triana Service daemon of §3.2: "The
// Triana Service is comprised of three components: a client, a server and
// a command process server." In this implementation:
//
//   - the *server* component is the RPC surface (triana.run / wait /
//     status / cancel / ping) that accepts task-graph fragments, fetches
//     their module bundles on demand, wires their boundary connections to
//     named pipes, and executes them in a sandboxed engine via the local
//     resource manager;
//   - the *client* component is the Distribute call used by whichever
//     peer drives an application — it ships subgraphs to other services
//     and bridges the local engine to the remote pipes;
//   - the *command process server* is the same RPC surface as used by the
//     Triana Controller, which "acts as a scheduling manager for the
//     complete application being run over a Triana network".
package service

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/capgroup"
	"consumergrid/internal/chunkstore"
	"consumergrid/internal/discovery"
	"consumergrid/internal/engine"
	"consumergrid/internal/gateway"
	"consumergrid/internal/health"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/lifecycle"
	"consumergrid/internal/mcode"
	"consumergrid/internal/metrics"
	"consumergrid/internal/overlay"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/trace"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// RPC method names of the Triana service protocol.
const (
	MethodRun    = "triana.run"
	MethodWait   = "triana.wait"
	MethodStatus = "triana.status"
	MethodCancel = "triana.cancel"
	MethodPing   = "triana.ping"
)

// ServiceType is the advertised service name.
const ServiceType = "triana"

// Options configures a service daemon.
type Options struct {
	// PeerID identifies the peer; required.
	PeerID string
	// Transport and Addr place the daemon on the network. Addr "" lets
	// the transport choose (TCP port 0 / auto in-proc address).
	Transport jxtaserve.Transport
	Addr      string
	// Discovery configures the peer's discovery agent.
	Discovery discovery.Config
	// Sandbox is the policy applied to hosted workflows; the zero value
	// is deny-all (compute only).
	Sandbox sandbox.Policy
	// RM launches jobs; nil defaults to a Fork manager.
	RM gateway.ResourceManager
	// CodeBudget bounds the module store (0 = unlimited).
	CodeBudget int64
	// CPUMHz and FreeRAMMB are the advertised capability attributes.
	CPUMHz, FreeRAMMB int
	// PeerGroup names the virtual peer group advertised.
	PeerGroup string
	// RequireCode, when set, refuses to execute units whose bundles have
	// not been fetched (strict mobile-code semantics). The run request's
	// codeAddr header tells the service where to fetch from.
	RequireCode bool
	// Certified, when non-empty, restricts execution to the listed unit
	// names — the paper's mitigation for hostile workloads: "allow users
	// to only download executables that are selected from a pre-agreed,
	// certified, software library" (§3.5).
	Certified []string
	// Resilience tunes outbound retry, deadline and heartbeat behaviour;
	// zero values select defaults (see ResilienceOptions).
	Resilience ResilienceOptions
	// Health tunes the peer-health tracker (EWMA scoring + circuit
	// breakers) that orders farm and despatch candidates; zero values
	// select defaults (see health.Options). Owner and Registry are set
	// by the service.
	Health health.Options
	// MaxInflightDespatches bounds concurrent outbound despatch attempts
	// (default 64). ShedDespatchOverload selects shed-with-typed-error
	// backpressure instead of blocking when the budget is exhausted.
	MaxInflightDespatches int
	ShedDespatchOverload  bool
	// Tenants seeds the fair-share admission scheduler with named
	// tenants and their weights (a tenant with weight 2 drains its
	// despatch backlog twice as fast as one with weight 1). Tenants not
	// listed here are admitted on first use at TenantDefaultWeight.
	Tenants map[string]int
	// TenantDefaultWeight is the weight assumed for tenants not listed
	// in Tenants (default 1).
	TenantDefaultWeight int
	// Caps adds or overrides pairs in the peer's derived capability set
	// (trianad -caps): the set — unit-registry version, CPU class,
	// memory class, sandbox summary, data-tier support, plus these —
	// canonicalises into the peer's capability-group key, advertised
	// alongside the service advert so despatch can target "any member
	// of group G".
	Caps map[string]string
	// RequireCaps, set on a despatching peer, restricts farm candidates
	// to donors whose capability set carries every listed pair exactly
	// (trianad -require-caps). The controller resolves it to a group;
	// an empty or unknown group falls back to the whole pool.
	RequireCaps map[string]string
	// Overlay opts the daemon into the super-peer discovery overlay;
	// when set, the discovery agent is routed through it (Mode becomes
	// ModeOverlay). Nil keeps the flat Discovery config as given.
	Overlay *OverlayOptions
	// Wire selects transport features: Wire.Mux multiplexes all traffic
	// to a peer over one connection, Wire.Binary offers the binary codec
	// during negotiation. Off by default; trianad turns both on. Either
	// way, XML-only and unmuxed peers still interoperate (the handshake
	// downgrades per peer).
	Wire jxtaserve.WireOptions
	// DataTier opts the daemon into the content-addressed chunk tier:
	// farm inputs travel as digest manifests resolved through donor
	// caches and ring replicas instead of being re-streamed by the
	// controller per attempt. Off by default; trianad turns it on. Peers
	// negotiate per despatch, so mixed grids interoperate (a legacy donor
	// still gets streamed payloads).
	DataTier DataTierOptions
	// StateDir, when set, enables crash-safe state: the billing ledger,
	// advert store, chunk-pin set, per-peer health state and resumable
	// farm journals are checkpointed to a versioned CRC-checked snapshot
	// in this directory (atomic rename, tolerant of torn writes) and
	// restored by New on the next start. Empty disables persistence.
	StateDir string
	// CheckpointInterval is the periodic checkpoint cadence when
	// StateDir is set (default 30s; negative disables the periodic
	// loop, leaving per-commit and on-drain/close checkpoints).
	CheckpointInterval time.Duration
	// Logf receives diagnostics; may be nil.
	Logf func(format string, args ...any)
}

// Service is a running daemon.
type Service struct {
	opts    Options
	host    *jxtaserve.Host
	muxT    *jxtaserve.MuxTransport // nil unless Options.Wire.Mux
	disc    *discovery.Node
	fetcher *mcode.Fetcher
	rm      gateway.ResourceManager
	ownRM   bool

	billing   *ledger
	certified map[string]bool // nil = everything allowed
	available atomic.Bool
	nextRunID atomic.Int64

	res      ResilienceOptions // normalized copy of opts.Resilience
	resStats metrics.ResilienceStats
	health   *health.Tracker // live peer scores + circuit breakers
	admit    *admission      // bounded in-flight despatch budget

	overlay      *overlay.Client    // nil unless Options.Overlay set
	overlaySuper *overlay.SuperPeer // nil unless also a ring member

	chunks            *chunkstore.Store // nil unless the data tier is on
	chunkFetchTimeout time.Duration

	caps     capgroup.Set // derived capability set (see capgroup)
	groupKey string       // caps.Key(), fixed for the daemon's lifetime

	tracer *trace.Recorder // span recorder for despatch lifecycles

	// Lifecycle: the daemon's state machine position, its single drain,
	// and the crash-safe checkpoint plumbing (see lifecycle.go and
	// checkpoint.go).
	lcState      atomic.Int32 // lifecycle.State
	drains       drainState
	lcMetrics    lifecycleMetrics
	farms        *farmLedger // resumable farm journals
	checkpointMu sync.Mutex  // serialises snapshot writes

	// Goroutine ownership: every background goroutine the service spawns
	// (advertising, heartbeats, pipe bridges, output senders) registers
	// in bg and watches shutdown, so Close reliably reaps them — no
	// orphans accumulating over a daemon's lifetime.
	bg       sync.WaitGroup
	shutdown chan struct{}

	mu      sync.Mutex
	jobs    map[string]*job
	nextJob int
	closed  bool
}

// goBG runs f as a service-owned goroutine tracked by the lifecycle
// WaitGroup. f must return when s.shutdown closes.
func (s *Service) goBG(f func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		f()
	}()
}

type job struct {
	id     string
	handle *gateway.Handle
	// release holds the job's pipe teardown until it is claimed, once:
	// by the job's run, which then tears the pipes down as it ends, or
	// by releaseIfUnstarted. Claiming drops the reference, so a finished
	// job keeps none of its pipes alive.
	release atomic.Pointer[func()]

	mu     sync.Mutex
	result *engine.Result
	err    error
}

// New starts a service daemon.
func New(opts Options) (*Service, error) {
	if opts.PeerID == "" {
		return nil, fmt.Errorf("service: PeerID required")
	}
	if opts.Transport == nil {
		return nil, fmt.Errorf("service: Transport required")
	}
	transport := opts.Transport
	var muxT *jxtaserve.MuxTransport
	if opts.Wire.Mux {
		muxT = jxtaserve.NewMux(transport, opts.Wire)
		transport = muxT
	}
	host, err := jxtaserve.NewHost(opts.PeerID, transport, opts.Addr)
	if err != nil {
		if muxT != nil {
			muxT.Close()
		}
		return nil, err
	}
	s := &Service{
		opts:     opts,
		res:      opts.Resilience.withDefaults(),
		host:     host,
		muxT:     muxT,
		fetcher:  mcode.NewFetcher(host, mcode.NewStore(opts.CodeBudget)),
		rm:       opts.RM,
		jobs:     make(map[string]*job),
		billing:  newLedger(),
		tracer:   trace.Default(),
		shutdown: make(chan struct{}),
		farms:    newFarmLedger(),
	}
	s.drains.done = make(chan struct{})
	s.registerLifecycleMetrics()
	s.setLifecycleState(lifecycle.Starting)
	registerResilience(opts.PeerID, &s.resStats)
	healthOpts := opts.Health
	healthOpts.Owner = opts.PeerID
	s.health = health.New(healthOpts)
	s.admit = newAdmission(opts.MaxInflightDespatches, opts.ShedDespatchOverload,
		opts.PeerID, opts.Tenants, opts.TenantDefaultWeight,
		func(string) { s.resStats.DespatchSheds.Inc() })
	if len(opts.Certified) > 0 {
		s.certified = make(map[string]bool, len(opts.Certified))
		for _, u := range opts.Certified {
			s.certified[u] = true
		}
	}
	s.available.Store(true)
	if s.rm == nil {
		s.rm = gateway.NewFork()
		s.ownRM = true
	}
	// Super-peers join the data tier even when not explicitly enabled:
	// a ring member must be able to hold chunk replicas for the farms
	// that place them there.
	if opts.DataTier.Enable || (opts.Overlay != nil && opts.Overlay.SuperPeer) {
		s.setupDataTier(opts.DataTier)
	}
	// The capability identity is fixed at start: derived from the
	// profile (registry version, CPU/memory class, sandbox, data tier)
	// plus operator extras, and hashed into the group key the peer
	// advertises membership of.
	s.caps = capgroup.Derive(capgroup.Profile{
		CPUMHz:    opts.CPUMHz,
		FreeRAMMB: opts.FreeRAMMB,
		Sandbox:   opts.Sandbox,
		DataTier:  s.chunks != nil,
		Extra:     opts.Caps,
	})
	s.groupKey = s.caps.Key()
	discCfg := opts.Discovery
	// A bootstrap super-peer may start with an empty ring list (it joins
	// its own address); clients need at least one super to talk to.
	if opts.Overlay != nil && (len(opts.Overlay.SuperPeers) > 0 || opts.Overlay.SuperPeer) {
		if err := s.setupOverlay(opts.Overlay, &discCfg); err != nil {
			host.Close()
			if muxT != nil {
				muxT.Close()
			}
			return nil, err
		}
	}
	s.disc = discovery.NewNode(host, advert.NewCache(), discCfg)
	mcode.Attach(host) // every peer can serve the modules it knows
	host.Handle(MethodRun, s.handleRun)
	host.Handle(MethodWait, s.handleWait)
	host.Handle(MethodStatus, s.handleStatus)
	host.Handle(MethodCancel, s.handleCancel)
	host.Handle(MethodPing, s.handlePing)
	host.Handle(MethodBilling, s.handleBilling)
	host.Handle(MethodMetrics, s.handleMetrics)
	host.Handle(MethodTraces, s.handleTraces)
	host.Handle(MethodTenants, s.handleTenants)
	host.Handle(MethodGroups, s.handleGroups)
	host.Handle(MethodDrain, s.handleDrain)
	if opts.StateDir != "" {
		if err := s.restoreCheckpoint(); err != nil {
			s.Close()
			return nil, err
		}
		interval := opts.CheckpointInterval
		if interval == 0 {
			interval = defaultCheckpointInterval
		}
		if interval > 0 {
			s.goBG(func() {
				ticker := time.NewTicker(interval)
				defer ticker.Stop()
				for {
					select {
					case <-s.shutdown:
						return
					case <-ticker.C:
						if err := s.CheckpointNow(); err != nil {
							s.logf("service: %s periodic checkpoint: %v", opts.PeerID, err)
						}
					}
				}
			})
		}
	}
	s.setLifecycleState(lifecycle.Running)
	return s, nil
}

// Host exposes the peer's pipe host.
func (s *Service) Host() *jxtaserve.Host { return s.host }

// Health exposes the live peer-health tracker: EWMA scores, latency
// quantiles and circuit breakers for every peer this service has
// despatched to. It satisfies policy.Scorer, so planners can order
// candidates by it.
func (s *Service) Health() *health.Tracker { return s.health }

// Discovery exposes the peer's discovery agent.
func (s *Service) Discovery() *discovery.Node { return s.disc }

// Fetcher exposes the module fetcher (for code-distribution metrics).
func (s *Service) Fetcher() *mcode.Fetcher { return s.fetcher }

// Addr reports the daemon's dialable address.
func (s *Service) Addr() string { return s.host.Addr() }

// PeerID reports the peer identity.
func (s *Service) PeerID() string { return s.opts.PeerID }

// Close stops the daemon: no new jobs, running jobs cancelled, and every
// background goroutine the service owns (advertising, heartbeats) reaped
// before Close returns.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.shutdown)
	// Fail queued admission waiters with the closed outcome before the
	// transports go down, so no farm blocks on a slot that will never
	// free.
	s.admit.close()
	// Then let granted slots resolve before the ring is torn down: a
	// farm goroutine mid-despatch racing a vanished overlay produced
	// spurious shard-fallback warnings. Attempts either finish against
	// the still-live transports or fail fast once the wait expires.
	if !s.admit.awaitInflightDrained(2 * time.Second) {
		s.logf("service: %s: closing with despatch attempts still in flight", s.opts.PeerID)
	}
	// On-shutdown checkpoint, after in-flight commits landed their
	// journal entries but before any state-holding component dies.
	if s.opts.StateDir != "" {
		if cerr := s.CheckpointNow(); cerr != nil {
			s.logf("service: %s: shutdown checkpoint: %v", s.opts.PeerID, cerr)
		}
	}
	if s.ownRM {
		s.rm.Close()
	}
	// Jobs the manager dropped while pending hold pipes nobody else
	// will release.
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.releaseIfUnstarted()
	}
	if s.overlay != nil {
		s.overlay.Close()
	}
	if s.overlaySuper != nil {
		s.overlaySuper.Close()
	}
	err := s.host.Close()
	if s.muxT != nil {
		// After the host: host.Close unblocks pipe readers, then the mux
		// kills the sessions those readers rode on.
		s.muxT.Close()
	}
	s.bg.Wait()
	s.setLifecycleState(lifecycle.Stopped)
	return err
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// SetAvailable flips the donor's idle gate: the paper's Condor/SETI model
// where CPU is donated "when their workstation is idle i.e. when the
// screen saver turns on" (§3.7). While unavailable, new work is refused;
// running jobs are not interrupted (the owner's own processes simply
// compete, which the gateway models elsewhere).
func (s *Service) SetAvailable(available bool) { s.available.Store(available) }

// Available reports the current idle gate.
func (s *Service) Available() bool { return s.available.Load() }

// ServiceAdvert builds this peer's service advertisement.
func (s *Service) ServiceAdvert(ttl time.Duration) *advert.Advertisement {
	ad := &advert.Advertisement{
		Kind:   advert.KindService,
		ID:     "svc/" + s.opts.PeerID,
		PeerID: s.opts.PeerID,
		Name:   ServiceType,
		Addr:   s.Addr(),
	}
	ad.SetAttr(advert.AttrCPUMHz, strconv.Itoa(s.opts.CPUMHz))
	ad.SetAttr(advert.AttrFreeRAMMB, strconv.Itoa(s.opts.FreeRAMMB))
	if s.opts.PeerGroup != "" {
		ad.SetAttr(advert.AttrGroup, s.opts.PeerGroup)
	}
	// Capability pairs and the derived group key ride the service advert
	// too, so pull-path discovery can filter donors by capability even
	// before any group index exists.
	for k, v := range s.caps {
		ad.SetAttr(capgroup.AttrCap+k, v)
	}
	ad.SetAttr(capgroup.AttrGroupKey, s.groupKey)
	if ttl > 0 {
		ad.Expires = time.Now().Add(ttl)
	}
	return ad
}

// GroupAdvert builds this peer's capability-group membership advert.
// Its Name is the group key, so the overlay places it — and serves its
// subscriptions — on the R ring owners of the group's topic.
func (s *Service) GroupAdvert(ttl time.Duration) *advert.Advertisement {
	return capgroup.MembershipAdvert(s.opts.PeerID, s.Addr(), s.caps, s.opts.CPUMHz, ttl)
}

// Advertise publishes the peer's service advertisement through discovery
// — the "enrol in the Triana environment" step — together with its
// capability-group membership advert. Both are retracted by a drain and
// age out with the same TTL.
func (s *Service) Advertise(ttl time.Duration) error {
	if err := s.disc.Publish(s.ServiceAdvert(ttl)); err != nil {
		return err
	}
	if err := s.disc.Publish(s.GroupAdvert(ttl)); err != nil {
		return err
	}
	capgroup.CountPublish()
	return nil
}

// StartAdvertising re-publishes the service advertisement every interval
// with the given TTL, so rendezvous caches age out peers that vanish and
// keep the live ones fresh. It returns a stop function. Publishing skips
// silently while the idle gate is closed, which lets busy machines fall
// out of discovery until they are donatable again.
func (s *Service) StartAdvertising(interval, ttl time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	s.goBG(func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-s.shutdown:
				return
			case <-ticker.C:
				if !s.available.Load() || s.Draining() {
					// Busy or draining peers fall out of discovery as
					// their last advert's TTL expires.
					continue
				}
				if err := s.Advertise(ttl); err != nil {
					s.logf("service: re-advertise failed: %v", err)
				}
			}
		}
	})
	return func() { once.Do(func() { close(done) }) }
}

// RunLocal executes a full task graph on this peer, the "no local
// resource manager" path where the service itself launches the work.
func (s *Service) RunLocal(ctx context.Context, g *taskgraph.Graph, opts engine.Options) (*engine.Result, error) {
	if opts.Sandbox == nil {
		opts.Sandbox = sandbox.New(s.opts.Sandbox)
	}
	if opts.Logf == nil {
		opts.Logf = s.opts.Logf
	}
	return engine.Run(ctx, g, opts)
}

// JobInfo is one hosted job's externally visible state.
type JobInfo struct {
	ID        string
	State     gateway.State
	Processed int
}

// Jobs snapshots every job the daemon has accepted, sorted by ID — the
// data behind the §3.2 browser progress view.
func (s *Service) Jobs() []JobInfo {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		info := JobInfo{ID: j.id}
		if j.handle != nil {
			info.State = j.handle.State()
		}
		j.mu.Lock()
		if j.result != nil {
			for _, n := range j.result.Processed {
				info.Processed += n
			}
		}
		j.mu.Unlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// --- remote execution protocol ----------------------------------------------

// runPayload frames the triana.run request body: the graph XML plus an
// optional map of task-name -> checkpoint blob, enabling the §3.6.2
// migration path ("a check-pointing mechanism may also be employed to
// migrate computation if necessary").
func encodeRunPayload(graphXML []byte, state map[string][]byte) []byte {
	out := appendBlob(nil, graphXML)
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out = appendBlob(out, []byte(strconv.Itoa(len(keys))))
	for _, k := range keys {
		out = appendBlob(out, []byte(k))
		out = appendBlob(out, state[k])
	}
	return out
}

func decodeRunPayload(p []byte) (graphXML []byte, state map[string][]byte, err error) {
	graphXML, p, err = readBlob(p)
	if err != nil {
		return nil, nil, err
	}
	countBytes, p, err := readBlob(p)
	if err != nil {
		return nil, nil, err
	}
	count, err := strconv.Atoi(string(countBytes))
	if err != nil || count < 0 {
		return nil, nil, fmt.Errorf("service: bad state count %q", countBytes)
	}
	if count > 0 {
		state = make(map[string][]byte, count)
	}
	for i := 0; i < count; i++ {
		var k, v []byte
		if k, p, err = readBlob(p); err != nil {
			return nil, nil, err
		}
		if v, p, err = readBlob(p); err != nil {
			return nil, nil, err
		}
		state[string(k)] = v
	}
	return graphXML, state, nil
}

func appendBlob(out, b []byte) []byte {
	var tmp [10]byte
	n := 0
	x := uint64(len(b))
	for x >= 0x80 {
		tmp[n] = byte(x) | 0x80
		x >>= 7
		n++
	}
	tmp[n] = byte(x)
	out = append(out, tmp[:n+1]...)
	return append(out, b...)
}

func readBlob(p []byte) ([]byte, []byte, error) {
	var x uint64
	var s uint
	i := 0
	for {
		if i >= len(p) || i > 9 {
			return nil, nil, fmt.Errorf("service: truncated payload frame")
		}
		b := p[i]
		i++
		if b < 0x80 {
			x |= uint64(b) << s
			break
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	if uint64(len(p[i:])) < x {
		return nil, nil, fmt.Errorf("service: truncated payload frame")
	}
	return p[i : i+int(x)], p[i+int(x):], nil
}

// collectUnits gathers unit -> version over a graph, recursing groups.
func collectUnits(g *taskgraph.Graph, into map[string]string) {
	for _, t := range g.Tasks {
		if t.IsGroup() {
			collectUnits(t.Group, into)
			continue
		}
		into[t.Unit] = t.Version
	}
}

func (s *Service) handleRun(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	graphXML, restoreState, err := decodeRunPayload(req.Payload)
	if err != nil {
		return nil, err
	}
	g, err := taskgraph.ParseXML(graphXML)
	if err != nil {
		return nil, err
	}
	if !s.available.Load() {
		return nil, fmt.Errorf("service: peer %s is busy (owner active)", s.opts.PeerID)
	}
	iterations, _ := strconv.Atoi(req.Header("iterations"))
	if iterations < 1 {
		iterations = 1
	}
	seed, _ := strconv.ParseInt(req.Header("seed"), 10, 64)
	requester := req.Header("from")
	tenant := req.Header("tenant")
	if tenant == "" {
		tenant = DefaultTenant
	}
	// Adopt the caller's trace so the hosting peer's spans land in the
	// same tree as the despatching peer's (IDs travel in the envelope).
	traceID, parentSpan := trace.Extract(req.Header)

	// Certified-library policy first: a non-certified unit is rejected
	// before any code transfer happens (§3.5).
	if s.certified != nil {
		want := make(map[string]string)
		collectUnits(g, want)
		for unit := range want {
			if !s.certified[unit] {
				return nil, fmt.Errorf("service: unit %s is not in %s's certified library", unit, s.opts.PeerID)
			}
		}
	}

	// On-demand code download: fetch every referenced module from the
	// owner before execution (§3: dynamic download of code).
	if codeAddr := req.Header("codeAddr"); codeAddr != "" {
		want := make(map[string]string)
		collectUnits(g, want)
		if _, err := s.fetcher.EnsureGraphUnits(want, codeAddr); err != nil {
			return nil, err
		}
	} else if s.opts.RequireCode {
		want := make(map[string]string)
		collectUnits(g, want)
		for unit := range want {
			if !s.fetcher.Executable(unit) {
				return nil, fmt.Errorf("service: module %s not hosted and no codeAddr given", unit)
			}
		}
	}

	// Open input pipes for the graph's external inputs, named by the
	// boundary connection labels supplied in the request.
	nIn, _ := strconv.Atoi(req.Header("in.count"))
	if nIn != len(g.ExternalIn) {
		return nil, fmt.Errorf("service: request declares %d inputs, graph has %d",
			nIn, len(g.ExternalIn))
	}
	extIn := make(map[int]<-chan types.Data, nIn)
	var inPipes []*jxtaserve.InputPipe
	var inAds []*advert.Advertisement
	cleanup := func() {
		for _, p := range inPipes {
			p.Close()
		}
	}
	// abort also closes the bound output pipes: each holds a connection
	// to a downstream host, whose Close waits for that connection to end.
	var outPipes []*jxtaserve.OutputPipe
	abort := func() {
		cleanup()
		for _, p := range outPipes {
			p.Close()
		}
	}
	for i := 0; i < nIn; i++ {
		label := req.Header(fmt.Sprintf("in.%d.label", i))
		if label == "" {
			cleanup()
			return nil, fmt.Errorf("service: input %d has no label", i)
		}
		pipe, ad, err := s.host.OpenInput(label, 8)
		if err != nil {
			cleanup()
			return nil, err
		}
		eofs, _ := strconv.Atoi(req.Header(fmt.Sprintf("in.%d.eofs", i)))
		if eofs <= 0 {
			eofs = 1
		}
		pipe.ExpectEOFs(eofs)
		inPipes = append(inPipes, pipe)
		inAds = append(inAds, ad)
		extIn[i] = pipe.C
		// Publish so late binders can find the pipe through discovery too.
		if err := s.disc.Cache().Put(ad); err != nil {
			s.logf("service: caching pipe advert: %v", err)
		}
	}

	// Bind output pipes to the supplied downstream targets.
	nOut, _ := strconv.Atoi(req.Header("out.count"))
	if nOut != len(g.ExternalOut) {
		cleanup()
		return nil, fmt.Errorf("service: request declares %d outputs, graph has %d",
			nOut, len(g.ExternalOut))
	}
	extOut := make(map[int]chan<- types.Data, nOut)
	var outChans []chan types.Data
	for i := 0; i < nOut; i++ {
		label := req.Header(fmt.Sprintf("out.%d.label", i))
		addr := req.Header(fmt.Sprintf("out.%d.addr", i))
		if label == "" || addr == "" {
			cleanup()
			return nil, fmt.Errorf("service: output %d missing label/addr", i)
		}
		target := &advert.Advertisement{
			Kind: advert.KindPipe, ID: "target/" + label,
			PeerID: req.Header("from"), Name: label, Addr: addr,
		}
		op, err := s.host.BindOutput(target)
		if err != nil {
			abort()
			return nil, fmt.Errorf("service: binding output %d (%s): %w", i, label, err)
		}
		outPipes = append(outPipes, op)
		ch := make(chan types.Data, 8)
		outChans = append(outChans, ch)
		extOut[i] = ch
	}

	// Register the job and launch it through the resource manager.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		abort()
		return nil, fmt.Errorf("service: %s is shutting down", s.opts.PeerID)
	}
	s.nextJob++
	id := fmt.Sprintf("%s/job-%d", s.opts.PeerID, s.nextJob)
	j := &job{id: id}
	j.release.Store(&abort)
	s.jobs[id] = j
	s.mu.Unlock()
	jobsHosted.Inc()

	run := func(ctx context.Context) error {
		if j.release.Swap(nil) == nil {
			return context.Canceled // released before it could start
		}
		span := s.tracer.Start(traceID, parentSpan, "execute", s.opts.PeerID)
		span.SetAttr("job", id)
		span.SetAttr("tenant", tenant)
		defer span.End()
		var wg sync.WaitGroup
		var sendErr error
		var sendMu sync.Mutex
		// quit releases the senders once the engine has returned: on a
		// clean run the engine closes every output channel, but an early
		// validation error leaves them open, and a sender blocked on
		// `range ch` would leak for the life of the process.
		quit := make(chan struct{})
		for i := range outChans {
			wg.Add(1)
			go func(ch chan types.Data, op *jxtaserve.OutputPipe) {
				defer wg.Done()
				defer op.Close()
				for {
					select {
					case d, ok := <-ch:
						if !ok {
							return
						}
						if err := op.Send(d); err != nil {
							sendMu.Lock()
							if sendErr == nil {
								sendErr = err
							}
							sendMu.Unlock()
							// Drain so the engine never blocks, but give up
							// once it has exited.
							for {
								select {
								case _, ok := <-ch:
									if !ok {
										return
									}
								case <-quit:
									return
								}
							}
						}
					case <-quit:
						// Engine is done; flush whatever it buffered before
						// it closed (or abandoned) the channel.
						for {
							select {
							case d, ok := <-ch:
								if !ok {
									return
								}
								if err := op.Send(d); err != nil {
									sendMu.Lock()
									if sendErr == nil {
										sendErr = err
									}
									sendMu.Unlock()
									return
								}
							default:
								return
							}
						}
					}
				}
			}(outChans[i], outPipes[i])
		}
		res, err := engine.Run(ctx, g, engine.Options{
			Iterations:   iterations,
			Seed:         seed,
			Sandbox:      sandbox.New(s.opts.Sandbox),
			Logf:         s.opts.Logf,
			ExternalIn:   extIn,
			ExternalOut:  extOut,
			RestoreState: restoreState,
			Trace:        s.tracer,
			TraceID:      span.TraceID(),
			TraceParent:  span.SpanID(),
		})
		close(quit)
		wg.Wait()
		cleanup()
		sendMu.Lock()
		if err == nil && sendErr != nil {
			err = sendErr
		}
		sendMu.Unlock()
		span.Fail(err)
		j.mu.Lock()
		j.result = res
		j.err = err
		j.mu.Unlock()
		if res != nil {
			total := 0
			for _, n := range res.Processed {
				total += n
			}
			span.SetAttr("processed", strconv.Itoa(total))
			s.billing.record(requester, res.Elapsed, total)
		}
		return err
	}
	handle, err := s.rm.Submit(gateway.Job{ID: id, Run: run})
	if err != nil {
		j.releaseIfUnstarted() // Close may have released it already
		return nil, err
	}
	j.handle = handle

	adsPayload, err := advert.EncodeList(inAds)
	if err != nil {
		return nil, err
	}
	reply := &jxtaserve.Message{Payload: adsPayload}
	reply.SetHeader("job", id)
	if s.chunks != nil {
		// Advertise the data tier: a capable controller may send chunk
		// manifests to this job's input pipes instead of streaming.
		reply.SetHeader(capChunkstore, "1")
	}
	return reply, nil
}

func (s *Service) findJob(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	return j, nil
}

func (s *Service) handleWait(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	j, err := s.findJob(req.Header("job"))
	if err != nil {
		return nil, err
	}
	if err := j.handle.Wait(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	reply := &jxtaserve.Message{}
	reply.SetHeader("state", j.handle.State().String())
	if j.result != nil {
		total := 0
		for task, n := range j.result.Processed {
			reply.SetHeader("proc."+task, strconv.Itoa(n))
			total += n
		}
		reply.SetHeader("processed", strconv.Itoa(total))
		reply.SetHeader("elapsedMicros", strconv.FormatInt(j.result.Elapsed.Microseconds(), 10))
		// Ship the stateful units' checkpoints back so the caller can
		// migrate the computation to another peer.
		reply.Payload = encodeRunPayload(nil, j.result.State)
	}
	return reply, nil
}

func (s *Service) handleStatus(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	j, err := s.findJob(req.Header("job"))
	if err != nil {
		return nil, err
	}
	reply := &jxtaserve.Message{}
	reply.SetHeader("state", j.handle.State().String())
	return reply, nil
}

func (s *Service) handleCancel(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	j, err := s.findJob(req.Header("job"))
	if err != nil {
		return nil, err
	}
	j.handle.Cancel()
	j.releaseIfUnstarted()
	return &jxtaserve.Message{}, nil
}

// releaseIfUnstarted releases the pipes of a job whose run has not
// started, and keeps the run from starting. A resource manager never
// calls a run it cancelled while pending, so without this the job's
// output pipes would hold their connections open forever, and the
// downstream host's Close would wait on them.
func (j *job) releaseIfUnstarted() {
	if release := j.release.Swap(nil); release != nil {
		(*release)()
	}
}

func (s *Service) handlePing(req *jxtaserve.Message) (*jxtaserve.Message, error) {
	reply := &jxtaserve.Message{}
	reply.SetHeader("peer", s.opts.PeerID)
	reply.SetHeader("rm", s.rm.Name())
	reply.SetHeader("cpuMHz", strconv.Itoa(s.opts.CPUMHz))
	reply.SetHeader("freeRAMMB", strconv.Itoa(s.opts.FreeRAMMB))
	reply.SetHeader("units", strconv.Itoa(len(units.Names())))
	return reply, nil
}
