// Chunked resilient farming: the untrusted-consumer-peer layer over the
// §3.6.2 checkpointed re-despatch path.
//
// Each chunk is an attempt set. It keeps want attempts in flight (one,
// or Quorum) and commits once need distinct eligible peers return the
// same result (one, or a majority of Quorum). A failed attempt is
// replaced on the next-healthiest peer with the same checkpoint state,
// so the replay recomputes the chunk exactly. Two events add an attempt
// beyond want: the straggler timer (Speculate: the peer's p90 attempt
// latency × StragglerFactor, SpeculateAfter before history exists) and
// an inconclusive vote, which widens the electorate by one voter.
// Voters off the winning digest take a byzantine health penalty — the
// paper's §3.8 hostile peer made survivable without trusting any single
// volunteer.
//
// Candidates are ranked by the live health tracker (EWMA score, then
// latency). Open breakers are skipped, a formerly-dead peer is pinged
// before it gets real work, and a gated peer is forced only when the
// chunk has no ballot and nothing in flight. An attempt blocks for an
// admission slot only while its chunk holds none, so no chunk waits for
// a slot while holding one.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"consumergrid/internal/capgroup"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// ErrNoQuorumCapacity reports a quorum farm that could not assemble —
// or widen — its electorate without drawing voters from outside the
// committed capability group. Out-of-group candidates are skipped, not
// mixed in: their results would carry incomparable digests. Callers
// distinguish it from ordinary attempt exhaustion with errors.Is.
var ErrNoQuorumCapacity = errors.New("no quorum capacity within capability group")

// FarmOptions configures FarmChunks.
type FarmOptions struct {
	// Body builds the group body to despatch — a fresh graph per
	// attempt, with exactly one external input and one external output
	// (the streamed farm shape).
	Body func() *taskgraph.Graph
	// Peers are the candidate workers. Selection orders them by live
	// health (score, then latency); the listed order only breaks ties
	// among peers with no history.
	Peers []PeerRef
	// CodeAddr is the module owner remote peers fetch from ("" disables).
	CodeAddr string
	// ChunkAttempts bounds despatch attempts per chunk (default
	// 2×len(Peers), minimum MaxAttempts).
	ChunkAttempts int
	// AttemptTimeout bounds one chunk attempt end to end (default 30s).
	AttemptTimeout time.Duration
	// InitialState primes the first chunk's RestoreState (resuming an
	// earlier farm).
	InitialState map[string][]byte
	// Heartbeat runs the failure detector against the attempt's peer,
	// cancelling the attempt when the peer is declared dead.
	Heartbeat bool
	// Seed is passed to every despatched part.
	Seed int64
	// AfterChunk, if set, runs after each chunk commits — a test hook for
	// injecting faults at deterministic points.
	AfterChunk func(chunk int)

	// Speculate enables the straggler detector: an attempt running past
	// the threshold launches a backup on the next-healthiest peer.
	Speculate bool
	// SpeculateAfter is the straggler threshold before the peer has
	// latency history (default 2s).
	SpeculateAfter time.Duration
	// StragglerFactor scales the peer's observed p90 attempt latency
	// into the threshold once history exists (default 2.0).
	StragglerFactor float64
	// MaxSpeculative bounds backup attempts per chunk (default 1).
	MaxSpeculative int
	// Quorum, when > 1, despatches each chunk to Quorum peers and
	// commits only a majority-agreed result digest. Overrides
	// Speculate for the chunk's launch strategy.
	Quorum int

	// Tenant names the submitting tenant: admission slots are charged to
	// its fair-share queue, the identity rides every despatch envelope,
	// and the farm's committed chunks and egress bytes land on
	// tenant-labelled series. Empty means DefaultTenant.
	Tenant string

	// Group, when set, commits the farm to one capability group: only
	// peers listed in GroupMembers are eligible for first despatch,
	// failover, speculation or quorum ballots, so every voter's result
	// digest comes from an interchangeable donor. A quorum that cannot
	// reach majority without leaving the group ends with
	// ErrNoQuorumCapacity instead of silently mixing groups. The group
	// key also rides every despatched part's span.
	Group string
	// GroupMembers is the member peer-ID set of Group; required when
	// Group is set.
	GroupMembers map[string]bool

	// ResumeKey names this farm in the daemon's crash-safe farm ledger.
	// With Options.StateDir set, every chunk commit journals its outputs
	// and carried state to the checkpoint; a restarted daemon running the
	// same farm (same ResumeKey, same chunks, same Body) skips the
	// committed prefix and replays its recorded outputs byte for byte,
	// so the resumed output stream equals an uninterrupted run's and no
	// committed chunk is despatched — or billed — twice. Empty disables
	// journaling for this farm.
	ResumeKey string

	// datums holds every chunk's canonical payloads (and digests),
	// computed once per farm; manifests is the data-tier state when the
	// controller runs the chunk store; tstats caches the tenant's farm
	// series; eligible is the group-filtered candidate slice selection
	// draws from (all of Peers when no group is committed). All are
	// farm-internal: FarmChunks populates them after applying defaults.
	datums    [][]manifestDatum
	manifests *farmManifests
	tstats    *tenantFarmStats
	eligible  []PeerRef
}

func (o FarmOptions) withFarmDefaults(res ResilienceOptions) FarmOptions {
	if o.ChunkAttempts <= 0 {
		o.ChunkAttempts = 2 * len(o.Peers)
		if o.ChunkAttempts < res.MaxAttempts {
			o.ChunkAttempts = res.MaxAttempts
		}
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 30 * time.Second
	}
	if o.SpeculateAfter <= 0 {
		o.SpeculateAfter = 2 * time.Second
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 2.0
	}
	if o.MaxSpeculative <= 0 {
		o.MaxSpeculative = 1
	}
	if o.Tenant == "" {
		o.Tenant = DefaultTenant
	}
	return o
}

// FarmReport summarises a FarmChunks run.
type FarmReport struct {
	// Outputs are the committed sink outputs, in chunk order.
	Outputs []types.Data
	// FinalState is the checkpoint after the last chunk, despatchable as
	// the next farm's InitialState.
	FinalState map[string][]byte
	// Redespatches counts non-speculative chunk attempts beyond each
	// chunk's first.
	Redespatches int64
	// WastedOutputs counts outputs discarded from failed, abandoned or
	// outvoted attempts.
	WastedOutputs int64
	// PeerChunks maps peer ID to committed chunk count.
	PeerChunks map[string]int

	// SpeculationLaunches counts backup attempts started past the
	// straggler threshold; SpeculationWins counts races a backup won;
	// SpeculationWaste counts outputs discarded because a racing
	// sibling committed first.
	SpeculationLaunches int64
	SpeculationWins     int64
	SpeculationWaste    int64
	// QuorumDisagreements counts quorum votes where a peer's result
	// digest disagreed with the committed majority.
	QuorumDisagreements int64
	// ResumedChunks counts chunks skipped because a restored journal
	// (FarmOptions.ResumeKey) had already committed them in a previous
	// process; their outputs were replayed, not recomputed.
	ResumedChunks int
}

// farmResult is one attempt's terminal report, delivered on the chunk
// coordinator's results channel.
type farmResult struct {
	idx      int
	got      []types.Data
	newState map[string][]byte
	err      error
}

// stragglerRetry is how soon a fired-but-skipped straggler timer is
// re-armed: the speculative launch was blocked (no admission slot, no
// free peer), not rejected, so the detector keeps watching.
const stragglerRetry = 25 * time.Millisecond

// farmInflight is the coordinator's record of one running attempt.
type farmInflight struct {
	peer   PeerRef
	cancel context.CancelFunc
	spec   bool
	start  time.Time
}

// FarmChunks streams chunks of work through the body on the given
// peers, surviving peer failure: each chunk's attempts carry the
// checkpoint state of everything committed so far, so a re-despatched
// chunk recomputes exactly and the committed output stream equals an
// uninterrupted run's. A chunk commits only results that came back
// cleanly with one output per input (under Quorum, majority-agreed);
// every other output is counted as waste. Every abandoned or outvoted
// attempt is cancelled remotely and reaped before FarmChunks returns.
func (s *Service) FarmChunks(ctx context.Context, chunks [][]types.Data, opts FarmOptions) (*FarmReport, error) {
	if opts.Body == nil {
		return nil, fmt.Errorf("service: FarmChunks needs a Body")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("service: FarmChunks needs at least one peer")
	}
	if opts.Quorum > len(opts.Peers) {
		// One peer, one vote: a majority of Quorum/2+1 distinct voters can
		// never form, so reject the configuration up front instead of
		// burning every chunk's attempt budget discovering it.
		return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds %d peers — majority unreachable",
			opts.Quorum, len(opts.Peers))
	}
	// A committed group narrows the eligible candidates before any
	// despatch: out-of-group peers are invisible to selection, failover,
	// speculation and quorum ballots alike. A quorum that cannot seat
	// its electorate inside the group fails fast, same reasoning as the
	// peer-count check above.
	opts.eligible = opts.Peers
	if opts.Group != "" {
		opts.eligible = nil
		for _, p := range opts.Peers {
			if opts.GroupMembers[p.ID] {
				opts.eligible = append(opts.eligible, p)
			}
		}
		if len(opts.eligible) == 0 {
			return nil, fmt.Errorf("service: FarmChunks committed to group %s but no candidate peer is a member",
				opts.Group)
		}
		if opts.Quorum > len(opts.eligible) {
			capgroup.CountQuorumCapacity()
			return nil, fmt.Errorf("service: FarmChunks Quorum %d exceeds the %d members of group %s: %w",
				opts.Quorum, len(opts.eligible), opts.Group, ErrNoQuorumCapacity)
		}
	}
	opts = opts.withFarmDefaults(s.res)
	// Register with the admission scheduler before any slot is taken: a
	// draining daemon refuses the farm here (ErrDraining), while farms
	// registered before the drain keep acquiring slots for their
	// remaining chunks and finish normally.
	if err := s.admit.beginFarm(opts.Tenant); err != nil {
		return nil, err
	}
	defer s.admit.endFarm()
	opts.tstats = s.tenantFarm(opts.Tenant)
	opts.tstats.farms.Inc()
	// Canonically encode every datum once: the payloads feed the digests,
	// the attempt streams, and (data tier on) the pinned chunks and ring
	// replicas — so re-despatches and speculative backups never re-pay
	// the marshal, and a chunk's identity is fixed before attempt one.
	var err error
	if opts.datums, err = digestFarmChunks(chunks); err != nil {
		return nil, err
	}
	if s.chunks != nil {
		opts.manifests = s.prepareFarmManifests(opts.datums)
		defer opts.manifests.release()
	}
	farmID := s.nextRunID.Add(1)
	report := &FarmReport{PeerChunks: make(map[string]int)}
	state := opts.InitialState

	// Resume: a journal restored from a checkpoint replays the
	// committed prefix — outputs byte for byte, carried state intact —
	// and the despatch loop starts at the first uncommitted chunk.
	resumeFrom := 0
	if opts.ResumeKey != "" {
		if j := s.farms.resume(opts.ResumeKey); j != nil && j.committed <= len(chunks) {
			for _, ob := range j.outputs {
				d, err := types.Unmarshal(ob)
				if err != nil {
					return report, fmt.Errorf("service: replaying journal %q: %w", opts.ResumeKey, err)
				}
				report.Outputs = append(report.Outputs, d)
			}
			if len(j.state) > 0 {
				state = j.state
			}
			resumeFrom = j.committed
			report.ResumedChunks = j.committed
			s.farms.begin(opts.ResumeKey, j)
		} else {
			s.farms.begin(opts.ResumeKey, nil)
		}
	}

	// losers reaps abandoned racing attempts: they are cancelled, keep
	// running until the cancel lands, and must be accounted (waste,
	// admission slots) before the farm returns.
	var losers sync.WaitGroup
	defer losers.Wait()

	for c := resumeFrom; c < len(chunks); c++ {
		chunksInflight.Add(1)
		got, newState, peerID, err := s.runChunk(ctx, chunks[c], state, farmID, c, opts, report, &losers)
		chunksInflight.Add(-1)
		if err != nil {
			return report, err
		}
		report.Outputs = append(report.Outputs, got...)
		if len(newState) > 0 {
			state = newState
		}
		report.PeerChunks[peerID]++
		chunksCommitted.Inc()
		opts.tstats.chunks.Inc()
		if opts.ResumeKey != "" {
			// Journal the commit, then make it durable before AfterChunk
			// (the chaos tests crash there): a kill after this point
			// resumes past this chunk instead of re-running it.
			marshalled := make([][]byte, 0, len(got))
			for _, d := range got {
				p, merr := types.Marshal(d)
				if merr != nil {
					return report, fmt.Errorf("service: journaling chunk %d: %w", c, merr)
				}
				marshalled = append(marshalled, p)
			}
			s.farms.commit(opts.ResumeKey, marshalled, state)
			if s.opts.StateDir != "" {
				if cerr := s.CheckpointNow(); cerr != nil {
					s.logf("service: farm %q chunk %d checkpoint: %v", opts.ResumeKey, c, cerr)
				}
			}
		}
		if opts.AfterChunk != nil {
			opts.AfterChunk(c)
		}
	}
	report.FinalState = state
	if opts.ResumeKey != "" {
		// The farm is complete; drop the journal so a restart does not
		// replay a finished farm, and persist the removal.
		s.farms.finish(opts.ResumeKey)
		if s.opts.StateDir != "" {
			if cerr := s.CheckpointNow(); cerr != nil {
				s.logf("service: farm %q completion checkpoint: %v", opts.ResumeKey, cerr)
			}
		}
	}
	return report, nil
}

// nextFarmPeer picks the best candidate not already working this chunk.
// Usable (non-open-breaker) peers are tried in health rank order; a
// half-open peer claims its single probe slot, and needsProbe marks the
// ones whose last verdict was dead, so the launcher pings before
// trusting them. With allowGated set and nothing usable, the best
// open-breaker peer is forced — the attempt doubles as its probe.
func (s *Service) nextFarmPeer(peers []PeerRef, busy map[string]bool, allowGated bool) (ref PeerRef, needsProbe, ok bool) {
	byID := make(map[string]PeerRef, len(peers))
	ids := make([]string, 0, len(peers))
	for _, p := range peers {
		byID[p.ID] = p
		ids = append(ids, p.ID)
	}
	usable, gated := s.health.Rank(ids)
	for _, id := range usable {
		if busy[id] {
			continue
		}
		if admitted, probe := s.health.Admit(id); admitted {
			return byID[id], probe, true
		}
	}
	if allowGated {
		for _, id := range gated {
			if busy[id] {
				continue
			}
			return byID[id], false, true
		}
	}
	return PeerRef{}, false, false
}

// probeFarmPeer pings a formerly-dead peer once before real work is
// committed to it. A single unretried probe: the peer is either back or
// it is not.
func (s *Service) probeFarmPeer(peer PeerRef) error {
	start := time.Now()
	if _, err := s.host.RequestTimeout(peer.Addr, MethodPing, nil, nil, s.res.HeartbeatTimeout); err != nil {
		s.health.ReportFailure(peer.ID)
		return err
	}
	s.health.ReportSuccess(peer.ID, time.Since(start))
	return nil
}

// stragglerThreshold derives the speculation trigger for an attempt on
// the given peer: its observed p90 attempt latency scaled by
// StragglerFactor once history exists, the SpeculateAfter fallback
// before that.
func (s *Service) stragglerThreshold(peerID string, opts FarmOptions) time.Duration {
	if p90, ok := s.health.LatencyQuantile(peerID, 0.9); ok {
		d := time.Duration(float64(p90) * opts.StragglerFactor)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	return opts.SpeculateAfter
}

// abandonRacers cancels every still-running attempt and hands their
// accounting to a reaper goroutine: waste is tallied and admission
// slots released as each loser drains, and the farm-level WaitGroup
// holds FarmChunks open until all are reaped. specRace marks waste
// caused by a speculative race (vs. a farm-level cancellation).
func (s *Service) abandonRacers(inflight map[int]*farmInflight, results <-chan farmResult,
	report *FarmReport, losers *sync.WaitGroup, tenant string, specRace bool) {
	if len(inflight) == 0 {
		return
	}
	remaining := len(inflight)
	for _, fl := range inflight {
		fl.cancel()
	}
	losers.Add(1)
	go func() {
		defer losers.Done()
		for i := 0; i < remaining; i++ {
			r := <-results
			s.admit.release(tenant)
			s.wasteOutputs(report, len(r.got))
			if specRace {
				atomic.AddInt64(&report.SpeculationWaste, int64(len(r.got)))
				s.resStats.SpeculationWaste.Add(int64(len(r.got)))
			}
		}
	}()
}

// wasteOutputs tallies outputs discarded from a failed, abandoned,
// outvoted or duplicate attempt.
func (s *Service) wasteOutputs(report *FarmReport, n int) {
	atomic.AddInt64(&report.WastedOutputs, int64(n))
	s.resStats.WastedItems.Add(int64(n))
}

// ballot is one attempt's clean result, held until the chunk settles.
// The digest is computed only when more than one ballot must agree.
type ballot struct {
	fl      *farmInflight
	got     []types.Data
	state   map[string][]byte
	digest  string
	elapsed time.Duration
}

// tally counts the ballots' digests and returns the best one with its
// vote count: the most votes, ties going to the lexically smallest
// digest, so the verdict never depends on arrival order.
func tally(ballots []ballot) (best string, votes int) {
	for i, b := range ballots {
		// Counting from i onwards gives a digest's first occurrence its
		// full count; later occurrences count fewer and never win.
		n := 0
		for _, o := range ballots[i:] {
			if o.digest == b.digest {
				n++
			}
		}
		if n > votes || (n == votes && b.digest < best) {
			best, votes = b.digest, n
		}
	}
	return best, votes
}

// runChunk runs one chunk as an attempt set (see the package comment)
// and returns the committed attempt's outputs, checkpoint state and
// peer. A single-result chunk commits its first clean result at once
// and abandons the racers; a quorum chunk votes only once every
// launched attempt has resolved, so the outcome is independent of
// arrival order. Every discarded output is tallied as waste once.
func (s *Service) runChunk(ctx context.Context, chunk []types.Data,
	state map[string][]byte, farmID int64, c int, opts FarmOptions,
	report *FarmReport, losers *sync.WaitGroup) ([]types.Data, map[string][]byte, string, error) {

	want, need := 1, 1
	if opts.Quorum > 1 {
		want, need = opts.Quorum, opts.Quorum/2+1
	}
	// Every launch spends budget, so attempt goroutines never block on
	// delivery, even after the coordinator has moved on.
	results := make(chan farmResult, opts.ChunkAttempts)
	inflight := make(map[int]*farmInflight)
	// busy excludes a chunk's in-flight peers and its voters from
	// re-selection: one peer, one vote.
	busy := make(map[string]bool)
	var ballots []ballot
	attemptsUsed, primaries, specLaunched := 0, 0, 0

	var straggler *time.Timer
	var stragglerC <-chan time.Time
	committed := false
	defer func() {
		if straggler != nil {
			straggler.Stop()
		}
		// The one abandon path: a commit's racers, and every attempt
		// still running when the context ends or a launch fails.
		s.abandonRacers(inflight, results, report, losers, opts.Tenant, committed)
	}()

	// launch starts an attempt on the best admitted candidate. A failed
	// probe of a formerly-dead peer spends an attempt and moves on.
	launch := func(spec bool) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err // a despatch now could start a job nobody cancels
		}
		for attemptsUsed < opts.ChunkAttempts {
			// Gated peers are forced only when the chunk would otherwise
			// fail outright — never to back up a racer or top up a quorum.
			allowGated := len(ballots) == 0 && len(inflight) == 0
			peer, needsProbe, ok := s.nextFarmPeer(opts.eligible, busy, allowGated)
			if !ok {
				return false, nil
			}
			// The slot rule: block for a slot only while holding none.
			// In-flight attempts hold slots this loop frees as it drains
			// their results, so blocking now would be hold-and-wait. Any
			// other launch skips instead and retries after a result.
			if len(inflight) > 0 {
				if !s.admit.tryAcquire(opts.Tenant) {
					return false, nil
				}
			} else if err := s.admit.acquire(ctx, s.shutdown, opts.Tenant); err != nil {
				return false, err
			}
			attemptsUsed++
			if needsProbe {
				if err := s.probeFarmPeer(peer); err != nil {
					s.admit.release(opts.Tenant)
					s.logf("service: farm %d chunk %d probe of %s failed: %v", farmID, c, peer.ID, err)
					continue
				}
			}
			if spec {
				specLaunched++
				report.SpeculationLaunches++
				s.resStats.SpeculationLaunches.Inc()
			} else {
				if primaries >= want {
					report.Redespatches++
					s.resStats.Redespatches.Inc()
				}
				primaries++
			}
			idx := attemptsUsed - 1
			actx, cancel := context.WithCancel(ctx)
			fl := &farmInflight{peer: peer, cancel: cancel, spec: spec, start: time.Now()}
			inflight[idx] = fl
			busy[peer.ID] = true
			go func() {
				got, newState, err := s.farmAttempt(actx, fl.peer, chunk, state, farmID, c, idx, opts)
				cancel()
				results <- farmResult{idx: idx, got: got, newState: newState, err: err}
			}()
			if opts.Speculate && want == 1 {
				if straggler != nil {
					straggler.Stop()
				}
				straggler = time.NewTimer(s.stragglerThreshold(peer.ID, opts))
				stragglerC = straggler.C
			}
			return true, nil
		}
		return false, nil
	}

	for {
		for len(ballots)+len(inflight) < want {
			launched, err := launch(false)
			if err != nil {
				return nil, nil, "", err
			}
			if !launched {
				break
			}
		}
		// Settle: a single-result chunk at its first clean ballot, a
		// quorum chunk once every launched attempt has resolved.
		if len(ballots) > 0 && (need == 1 || len(inflight) == 0) {
			if best, votes := tally(ballots); votes >= need {
				committed = true
				winner := s.settleBallots(ballots, best, true, report, farmID, c)
				if winner.fl.spec {
					report.SpeculationWins++
					s.resStats.SpeculationWins.Inc()
				}
				if need > 1 {
					s.resStats.QuorumCommits.Inc()
				}
				return winner.got, winner.state, winner.fl.peer.ID, nil
			}
		}
		if len(inflight) == 0 {
			// Settled without a commit: widen by one fresh voter. Earlier
			// ballots stay live and their peers busy, so every pass adds a
			// voter or ends the chunk.
			launched, err := launch(false)
			if err != nil {
				return nil, nil, "", err
			}
			if !launched {
				return nil, nil, "", s.chunkFailed(ballots, need, attemptsUsed, opts, report, farmID, c)
			}
		}
		select {
		case <-ctx.Done():
			return nil, nil, "", ctx.Err()
		case <-stragglerC:
			stragglerC = nil
			if specLaunched < opts.MaxSpeculative {
				if launched, _ := launch(true); !launched && attemptsUsed < opts.ChunkAttempts {
					// Skipped, not spent: no admission slot or free peer
					// right now. Re-arm shortly — a slot or a half-open
					// peer may free while the straggler is still running.
					straggler.Reset(stragglerRetry)
					stragglerC = straggler.C
				}
			}
		case r := <-results:
			fl := inflight[r.idx]
			delete(inflight, r.idx)
			s.admit.release(opts.Tenant)
			if r.err == nil && len(r.got) == len(chunk) {
				var digest string
				if need > 1 {
					digest, r.err = resultDigest(r.got, r.newState)
				}
				if r.err == nil {
					ballots = append(ballots, ballot{fl, r.got, r.newState, digest, time.Since(fl.start)})
					if opts.manifests != nil {
						// The peer now holds the chunk's data: offer it to later fetches.
						opts.manifests.recordResolved(c, fl.peer.Addr)
					}
					continue
				}
			}
			delete(busy, fl.peer.ID)
			s.health.ReportFailure(fl.peer.ID)
			s.wasteOutputs(report, len(r.got))
			s.logf("service: farm %d chunk %d attempt %d on %s failed (%d/%d outputs): %v",
				farmID, c, r.idx, fl.peer.ID, len(r.got), len(chunk), r.err)
		}
	}
}

// settleBallots closes a chunk's ballots against the best digest and
// returns the first agreeing ballot. Dissenters take the byzantine
// penalty. On a commit the agreeing voters are credited and every
// output but the winner's is waste (agreeing duplicates are intentional
// redundancy, still discarded work); on a failed chunk all are waste.
func (s *Service) settleBallots(ballots []ballot, best string, commit bool,
	report *FarmReport, farmID int64, c int) (winner *ballot) {
	for i := range ballots {
		b := &ballots[i]
		switch {
		case b.digest != best:
			s.health.ReportByzantine(b.fl.peer.ID)
			report.QuorumDisagreements++
			s.resStats.QuorumDisagreements.Inc()
			s.logf("service: farm %d chunk %d quorum: peer %s voted against the plurality", farmID, c, b.fl.peer.ID)
		case commit:
			s.health.ReportSuccess(b.fl.peer.ID, b.elapsed)
			if winner == nil {
				winner = b
				continue
			}
		}
		s.wasteOutputs(report, len(b.got))
	}
	return winner
}

// chunkFailed settles a chunk that can launch nothing more and returns
// its error: no clean result within the budget, or — under quorum —
// ballots that never reached a majority.
func (s *Service) chunkFailed(ballots []ballot, need, attemptsUsed int, opts FarmOptions,
	report *FarmReport, farmID int64, c int) error {
	if need == 1 {
		return fmt.Errorf("service: farm chunk %d failed after %d attempts", c, attemptsUsed)
	}
	// Voters outside the plurality kept quorum from forming: penalise
	// them as a committed round's minority.
	best, _ := tally(ballots)
	s.settleBallots(ballots, best, false, report, farmID, c)
	if opts.Group != "" && len(opts.eligible) < len(opts.Peers) && attemptsUsed < opts.ChunkAttempts {
		// Budget remained but every fresh in-group voter is spent: the
		// out-of-group candidates were deliberately skipped rather than
		// mixed into the electorate, and the typed error says so.
		capgroup.CountQuorumCapacity()
		return fmt.Errorf(
			"service: farm chunk %d: widening needs a fresh voter but group %s has none left (%d out-of-group candidates skipped): %w",
			c, opts.Group, len(opts.Peers)-len(opts.eligible), ErrNoQuorumCapacity)
	}
	return fmt.Errorf("service: farm chunk %d found no quorum of %d among %d results after %d attempts",
		c, need, len(ballots), attemptsUsed)
}

// farmAttempt runs one chunk on one peer: despatch with restored state,
// stream the chunk in, collect outputs until the sink pipe closes, then
// fetch the completion state. Every pipe label is scoped to the
// (farm, chunk, attempt) triple so residue from a lost attempt can
// never leak into a later one — racing speculative attempts of the same
// chunk get distinct attempt indices and therefore disjoint pipes.
func (s *Service) farmAttempt(ctx context.Context, peer PeerRef, chunk []types.Data,
	state map[string][]byte, farmID int64, c, a int, opts FarmOptions) ([]types.Data, map[string][]byte, error) {

	attemptCtx, cancel := context.WithTimeout(ctx, opts.AttemptTimeout)
	defer cancel()

	// The failure detector starts before the despatch so a peer that
	// dies during (or refuses) the handshake still earns its dead
	// verdict, opening the breaker for future selection.
	if opts.Heartbeat {
		stop := s.StartPeerHeartbeat(peer, cancel)
		defer stop()
	}

	prefix := fmt.Sprintf("farm/%s/%d/c%d/a%d", s.opts.PeerID, farmID, c, a)
	pipe, _, err := s.host.OpenInput(prefix+"/out", len(chunk)+1)
	if err != nil {
		return nil, nil, err
	}
	defer pipe.Close()
	pipe.ExpectEOFs(1)

	job, err := s.despatchCtx(attemptCtx, RemotePart{
		Peer:         peer,
		Body:         opts.Body(),
		InLabels:     []string{prefix + "/in"},
		OutTargets:   []PipeTarget{{Label: prefix + "/out", Addr: s.Addr()}},
		Iterations:   1,
		Seed:         opts.Seed,
		RestoreState: state,
		Tenant:       opts.Tenant,
		Group:        opts.Group,
	}, opts.CodeAddr)
	if err != nil {
		return nil, nil, err
	}

	out, err := s.host.BindOutput(job.InAds[0])
	if err != nil {
		return nil, nil, err
	}
	// Feed the chunk. With the data tier negotiated on both ends, one
	// manifest frame replaces the payload stream: the donor resolves the
	// digests through its cache, the ring, sibling donors, and only then
	// the controller — that ladder, not this loop, is now the data plane.
	// A legacy peer (or a farm on a controller without the tier) still
	// gets the payloads streamed, checking the context between items so
	// an abandoned attempt stops feeding the loser promptly.
	var sendErr error
	if opts.manifests != nil && job.ChunkCapable {
		if attemptCtx.Err() == nil {
			payload := opts.manifests.manifestFor(c, peer.Addr)
			if sendErr = out.SendManifest(payload); sendErr == nil {
				s.resStats.FarmEgressBytes.Add(int64(len(payload)))
				opts.tstats.egress.Add(int64(len(payload)))
			}
		}
	} else {
		for _, d := range opts.datums[c] {
			if attemptCtx.Err() != nil {
				break
			}
			if sendErr = out.SendRaw(d.payload); sendErr != nil {
				break
			}
			s.resStats.FarmEgressBytes.Add(int64(len(d.payload)))
			opts.tstats.egress.Add(int64(len(d.payload)))
		}
	}
	// Abandoned mid-stream: cancel the remote job before signalling
	// end-of-stream — the worker must not mistake the truncated input
	// for a short-but-complete chunk and commit a partial result as
	// done. CancelRemote is a synchronous RPC, so the verdict lands
	// before the EOF does.
	cancelled := false
	if attemptCtx.Err() != nil {
		s.CancelRemote(job)
		cancelled = true
	}
	out.Close()

	// Collect until the remote signals EOF (pipe.C closes) or the
	// attempt dies. A worker that vanishes breaks its output conn, which
	// counts as its EOF, so this loop always terminates.
	var got []types.Data
collect:
	for {
		select {
		case d, ok := <-pipe.C:
			if !ok {
				break collect
			}
			got = append(got, d)
		case <-attemptCtx.Done():
			break collect
		}
	}
	if err := attemptCtx.Err(); err != nil {
		// Abandoned attempt (timeout, dead verdict, or a racing sibling
		// committed first): tell the peer to stop, best effort.
		if !cancelled {
			s.CancelRemote(job)
		}
		return got, nil, err
	}
	if sendErr != nil {
		return got, nil, sendErr
	}
	_, newState, err := s.waitRemoteStateCtx(attemptCtx, job)
	if err != nil {
		return got, nil, err
	}
	return got, newState, nil
}
