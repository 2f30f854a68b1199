package service

// The untrusted-peer harness: deterministic byzantine + dead-peer chaos
// under result quorum, speculative-despatch races with cancel
// propagation, health-gated peer selection, admission control, and
// mid-chunk cancellation. Everything runs on the seeded simnet so the
// fault schedules replay identically.

import (
	"context"
	"errors"
	"testing"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/health"
	"consumergrid/internal/metrics"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
)

// quorumNet builds a controller plus four workers with test-unique
// labels (the process-global metrics registry keys gauges by
// observer/peer, so labels must not collide across tests).
func quorumNet(t *testing.T, n *simnet.Network, prefix string, healthOpts health.Options) (ctl *Service, peers []PeerRef) {
	t.Helper()
	ctl = newService(t, n.Peer(prefix+"ctl"), prefix+"ctl", Options{
		Resilience: chaosResilience(),
		Health:     healthOpts,
	})
	for _, label := range []string{"w1", "w2", "w3", "w4"} {
		w := newService(t, n.Peer(prefix+label), prefix+label, Options{})
		peers = append(peers, PeerRef{ID: prefix + label, Addr: w.Addr()})
	}
	return ctl, peers
}

// TestChaosByzantineQuorum is the acceptance scenario: a seeded simnet
// with one byzantine peer (every pipe payload on its links silently
// corrupted) and one dead peer. A Quorum:3 farm must commit only
// majority-agreed outputs — identical to a clean run — while the
// byzantine peer's health score collapses below the suspicion threshold
// and the dead peer's breaker opens, all observable through the metrics
// registry.
func TestChaosByzantineQuorum(t *testing.T) {
	const nChunks, perChunk = 4, 5
	chunks := chaosChunks(chaosSeed, nChunks, perChunk)

	// Clean reference run: same topology, no faults, no quorum.
	refNet := simnet.New()
	refCtl, refPeers := quorumNet(t, refNet, "qref-", health.Options{})
	want := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{})

	n := simnet.New()
	n.FaultSeed(7)
	ctl, peers := quorumNet(t, n, "q-", health.Options{})
	// q-w1 is byzantine: every pipe.data payload crossing its links is
	// corrupted in flight. q-w2 is dead before the farm starts.
	n.SetLinkFaults("q-w1", simnet.LinkFaults{CorruptEvery: 1})
	n.Kill("q-w2")

	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{
		Quorum:    3,
		Heartbeat: true,
	})

	if n.Corrupted() == 0 {
		t.Fatal("byzantine fault injection never fired; the test exercised nothing")
	}
	assertSameOutputs(t, rep.Outputs, want.Outputs)

	snap := ctl.Resilience().Snapshot()
	if snap.QuorumCommits != int64(nChunks) {
		t.Errorf("quorum commits = %d, want %d", snap.QuorumCommits, nChunks)
	}
	if rep.QuorumDisagreements < 2 || snap.QuorumDisagreements != rep.QuorumDisagreements {
		t.Errorf("quorum disagreements = %d (report) / %d (stats), want >= 2 and equal",
			rep.QuorumDisagreements, snap.QuorumDisagreements)
	}
	if rep.PeerChunks["q-w1"] != 0 {
		t.Errorf("byzantine peer committed %d chunks", rep.PeerChunks["q-w1"])
	}

	// The byzantine penalty must have pushed q-w1 below the suspicion
	// threshold, and the dead peer's breaker must be open — asserted via
	// the registry gauges the /resilience page renders.
	score := metrics.Default().Gauge(
		metrics.Series("health_peer_score", "observer", "q-ctl", "peer", "q-w1")).Value()
	if score >= 0.5 {
		t.Errorf("byzantine peer score = %v, want < 0.5", score)
	}
	if !ctl.Health().Suspect("q-w1") {
		t.Error("byzantine peer not marked suspect")
	}
	breaker := metrics.Default().Gauge(
		metrics.Series("health_breaker_state", "observer", "q-ctl", "peer", "q-w2")).Value()
	if breaker != float64(health.Open) {
		t.Errorf("dead peer breaker gauge = %v, want %v (open)", breaker, float64(health.Open))
	}
	t.Logf("corrupted=%d disagreements=%d redespatches=%d wasted=%d peers=%v",
		n.Corrupted(), rep.QuorumDisagreements, rep.Redespatches, rep.WastedOutputs, rep.PeerChunks)
}

// TestFarmSkipsDeclaredDeadPeer is the regression for the consult-dead-
// peers bug: a peer the failure detector has declared dead must not be
// consulted by FarmChunks at all — no redespatches burned on it — until
// a successful probe revives it.
func TestFarmSkipsDeclaredDeadPeer(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ds-ctl"), "ds-ctl", Options{
		Resilience: chaosResilience(),
		Health:     health.Options{OpenTimeout: 50 * time.Millisecond},
	})
	w1 := newService(t, n.Peer("ds-w1"), "ds-w1", Options{})
	w2 := newService(t, n.Peer("ds-w2"), "ds-w2", Options{})
	peers := []PeerRef{
		{ID: "ds-w1", Addr: w1.Addr()},
		{ID: "ds-w2", Addr: w2.Addr()},
	}

	// The detector declared ds-w1 dead (simulating an earlier heartbeat
	// verdict). The farm must route everything to ds-w2 first try.
	ctl.Health().ReportDead("ds-w1")
	chunks := chaosChunks(chaosSeed, 3, 4)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{})
	if rep.PeerChunks["ds-w1"] != 0 {
		t.Errorf("dead peer was consulted: %v", rep.PeerChunks)
	}
	if rep.PeerChunks["ds-w2"] != 3 {
		t.Errorf("healthy peer chunks = %v, want all 3", rep.PeerChunks)
	}
	if rep.Redespatches != 0 {
		t.Errorf("skipping a dead peer burned %d redespatches", rep.Redespatches)
	}

	// After the breaker cooldown the peer is half-open but still flagged
	// dead, so selection must ping-probe it before trusting it with a
	// chunk; the probe succeeds and the peer serves again.
	time.Sleep(80 * time.Millisecond)
	rep2 := runChaosFarm(t, ctl, []PeerRef{{ID: "ds-w1", Addr: w1.Addr()}}, chunks, FarmOptions{})
	if rep2.PeerChunks["ds-w1"] != 3 {
		t.Errorf("revived peer chunks = %v, want all 3", rep2.PeerChunks)
	}
	if ctl.Health().State("ds-w1") != health.Closed {
		t.Errorf("revived peer breaker = %v, want closed", ctl.Health().State("ds-w1"))
	}
}

// TestSpeculationWinsAndCancelsLoser: a slow peer trips the straggler
// detector, the backup attempt on the fast peer wins, and the losing
// attempt's remote job is cancelled on the slow worker — cancel
// propagation for racing attempts.
func TestSpeculationWinsAndCancelsLoser(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("sp-ctl"), "sp-ctl", Options{Resilience: chaosResilience()})
	w1 := newService(t, n.Peer("sp-w1"), "sp-w1", Options{})
	w2 := newService(t, n.Peer("sp-w2"), "sp-w2", Options{})
	peers := []PeerRef{
		{ID: "sp-w1", Addr: w1.Addr()},
		{ID: "sp-w2", Addr: w2.Addr()},
	}
	// Every message on sp-w1's links crawls, so the first (stable-order)
	// attempt lands on sp-w1 and stalls past the threshold. The
	// threshold comfortably exceeds the despatch round-trip so the slow
	// worker has accepted its job before the race begins — the loser we
	// then expect to see cancelled.
	n.SetLinkFaults("sp-w1", simnet.LinkFaults{Latency: 30 * time.Millisecond})

	// 10 items × 30ms means sp-w1 is still streaming inputs when the
	// backup commits, so the cancel catches its job mid-flight.
	chunks := chaosChunks(chaosSeed, 1, 10)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{
		Speculate:      true,
		SpeculateAfter: 200 * time.Millisecond,
	})
	if rep.SpeculationLaunches < 1 {
		t.Fatalf("straggler never triggered speculation: %+v", rep)
	}
	if rep.SpeculationWins < 1 || rep.PeerChunks["sp-w2"] != 1 {
		t.Fatalf("backup attempt did not win: %+v", rep)
	}
	if rep.Redespatches != 0 {
		t.Errorf("speculation counted as redespatch: %+v", rep)
	}

	// The loser's remote job on the slow worker must be cancelled, not
	// left running (its heartbeat goroutine is reaped by Close's leak
	// check, exercised in TestCloseReapsBackgroundGoroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var canceled bool
		for _, j := range w1.Jobs() {
			if j.State == gateway.Canceled {
				canceled = true
			}
		}
		if canceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("losing attempt's job never cancelled on sp-w1: %+v", w1.Jobs())
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := ctl.Resilience().Snapshot()
	if snap.SpeculationLaunches != rep.SpeculationLaunches || snap.SpeculationWins != rep.SpeculationWins {
		t.Errorf("registry counters diverge from report: %+v vs %+v", snap, rep)
	}
}

// TestFarmContextCancelMidChunk: cancelling the farm's context mid-chunk
// returns promptly with the context error, commits nothing beyond the
// already-committed chunks, and leaves no attempt running (FarmChunks
// waits for its losers before returning).
func TestFarmContextCancelMidChunk(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("cc-ctl"), "cc-ctl", Options{Resilience: chaosResilience()})
	w1 := newService(t, n.Peer("cc-w1"), "cc-w1", Options{})
	peers := []PeerRef{{ID: "cc-w1", Addr: w1.Addr()}}
	// Slow the links so the cancel lands while chunk 1 is in flight.
	n.SetLinkFaults("cc-w1", simnet.LinkFaults{Latency: 10 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	const perChunk = 3
	chunks := chaosChunks(chaosSeed, 3, perChunk)
	start := time.Now()
	rep, err := farmWithDeadline(t, ctx, ctl, chunks, FarmOptions{
		Body:  func() *taskgraph.Graph { return accumBody(t) },
		Peers: peers,
		AfterChunk: func(c int) {
			if c == 0 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancelled farm took %v to return", time.Since(start))
	}
	if len(rep.Outputs) != perChunk {
		t.Errorf("cancelled farm committed %d outputs, want exactly chunk 0's %d",
			len(rep.Outputs), perChunk)
	}
	// Every sender/attempt goroutine was reaped before FarmChunks
	// returned, so no job on the worker stays live.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := false
		for _, j := range w1.Jobs() {
			if j.State != gateway.Done && j.State != gateway.Failed && j.State != gateway.Canceled {
				live = true
			}
		}
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("uncommitted job still live after cancel: %+v", w1.Jobs())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionControl exercises the despatch budget directly: shed
// mode refuses over-budget acquires with the typed overload error and
// counts the shed; blocking mode waits until a slot frees or the
// context dies.
func TestAdmissionControl(t *testing.T) {
	var sheds int
	a := newAdmission(1, true, "adm-test", nil, 0, func(string) { sheds++ })
	if err := a.acquire(context.Background(), nil, "alice"); err != nil {
		t.Fatal(err)
	}
	err := a.acquire(context.Background(), nil, "alice")
	var overload *OverloadError
	if !errors.As(err, &overload) || overload.Limit != 1 || overload.Tenant != "alice" {
		t.Fatalf("over-budget acquire = %v, want *OverloadError{Tenant:alice, Limit:1}", err)
	}
	if sheds != 1 {
		t.Errorf("shed counter = %d, want 1", sheds)
	}
	if a.tryAcquire("alice") {
		t.Error("tryAcquire succeeded over budget")
	}
	a.release("alice")
	if !a.tryAcquire("alice") {
		t.Error("tryAcquire failed with a free slot")
	}
	a.release("alice")

	b := newAdmission(1, false, "adm-test-b", nil, 0, nil)
	if err := b.acquire(context.Background(), nil, ""); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := b.acquire(ctx, nil, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked acquire = %v, want deadline exceeded", err)
	}
	b.release("")
	if err := b.acquire(context.Background(), nil, ""); err != nil {
		t.Fatalf("acquire after release = %v", err)
	}
	b.release("")

	var nilAdm *admission
	if err := nilAdm.acquire(context.Background(), nil, ""); err != nil {
		t.Fatalf("nil admission refused: %v", err)
	}
	nilAdm.release("")
}

// TestFarmShedsOverBudget: with a 1-slot shedding budget, the farm's
// single primary attempt fits, so farms still complete — but a direct
// second acquire observes the shed path end to end through service
// options.
func TestFarmShedsOverBudget(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("sh-ctl"), "sh-ctl", Options{
		Resilience:            chaosResilience(),
		MaxInflightDespatches: 1,
		ShedDespatchOverload:  true,
	})
	w := newService(t, tr.Peer("sh-w1"), "sh-w1", Options{})

	rep := runChaosFarm(t, ctl, []PeerRef{{ID: "sh-w1", Addr: w.Addr()}},
		chaosChunks(chaosSeed, 2, 3), FarmOptions{})
	if len(rep.Outputs) != 6 {
		t.Fatalf("budgeted farm produced %d outputs", len(rep.Outputs))
	}

	// Hold the only slot; the next acquire must shed and count it.
	if err := ctl.admit.acquire(context.Background(), nil, ""); err != nil {
		t.Fatal(err)
	}
	var overload *OverloadError
	if err := ctl.admit.acquire(context.Background(), nil, ""); !errors.As(err, &overload) {
		t.Fatalf("held-budget acquire = %v, want *OverloadError", err)
	}
	ctl.admit.release("")
	if got := ctl.Resilience().Snapshot().DespatchSheds; got != 1 {
		t.Errorf("despatch sheds = %d, want 1", got)
	}
}

// TestQuorumInsufficientAgreement: with only one peer and Quorum:3 a
// majority of distinct voters is unreachable (one peer, one vote), so
// FarmChunks rejects the configuration up front — no despatches burned
// discovering the impossibility chunk by chunk.
func TestQuorumInsufficientAgreement(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("qi-ctl"), "qi-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, tr.Peer("qi-w1"), "qi-w1", Options{})

	_, err := farmWithDeadline(t, context.Background(), ctl, chaosChunks(chaosSeed, 1, 2), FarmOptions{
		Body:           func() *taskgraph.Graph { return accumBody(t) },
		Peers:          []PeerRef{{ID: "qi-w1", Addr: w.Addr()}},
		Quorum:         3,
		AttemptTimeout: 10 * time.Second,
	})
	if err == nil {
		t.Fatal("single-peer Quorum:3 farm committed without a majority")
	}
	if got := w.Jobs(); len(got) != 0 {
		t.Errorf("impossible quorum config still despatched %d jobs", len(got))
	}
}

// TestQuorumSplitVoteWidensAndCommits is the regression for the
// split-vote livelock: with Quorum:3 and two byzantine peers whose
// corruptions differ, the first round's three ballots split 1-1-1 with
// no digest at majority. The coordinator must widen the electorate to
// the fourth (honest) peer — keeping the honest first ballot live so
// the pair forms the majority — rather than re-voting the same
// deadlocked round forever.
func TestQuorumSplitVoteWidensAndCommits(t *testing.T) {
	const nChunks, perChunk = 2, 4
	chunks := chaosChunks(chaosSeed, nChunks, perChunk)

	refNet := simnet.New()
	refCtl, refPeers := quorumNet(t, refNet, "svref-", health.Options{})
	want := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{})

	n := simnet.New()
	ctl, peers := quorumNet(t, n, "sv-", health.Options{})
	// sv-w2 and sv-w3 lie at different cadences, so their digests
	// disagree with the honest result AND with each other: the first
	// round (sv-w1..w3 in rank order) is a guaranteed three-way split.
	n.SetLinkFaults("sv-w2", simnet.LinkFaults{CorruptEvery: 1})
	n.SetLinkFaults("sv-w3", simnet.LinkFaults{CorruptEvery: 2})

	// A livelocked vote fails at the stall deadline with the goroutine dump.
	rep, err := farmWithDeadline(t, context.Background(), ctl, chunks, FarmOptions{
		Body:           func() *taskgraph.Graph { return accumBody(t) },
		Peers:          peers,
		Quorum:         3,
		AttemptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("split-vote farm failed: %v (report: %+v)", err, rep)
	}
	assertSameOutputs(t, rep.Outputs, want.Outputs)
	if rep.PeerChunks["sv-w2"] != 0 || rep.PeerChunks["sv-w3"] != 0 {
		t.Errorf("byzantine peer committed a chunk: %v", rep.PeerChunks)
	}
	// Chunk 0's split round must have contributed BOTH byzantine ballots
	// (only a widened electorate votes them down together); a
	// non-widened commit would log at most one disagreement per chunk.
	if rep.QuorumDisagreements < 3 {
		t.Errorf("quorum disagreements = %d, want >= 3 (split round not widened?)",
			rep.QuorumDisagreements)
	}
	t.Logf("disagreements=%d redespatches=%d wasted=%d peers=%v",
		rep.QuorumDisagreements, rep.Redespatches, rep.WastedOutputs, rep.PeerChunks)
	// Waste is tallied exactly once per losing ballot, at commit time —
	// never re-counted per vote pass. Each chunk has at most 3 losing
	// ballots (two byzantine, one agreeing duplicate) of perChunk
	// outputs each.
	if max := int64(nChunks * 3 * perChunk); rep.WastedOutputs > max {
		t.Errorf("wasted outputs = %d, want <= %d (waste double-counted across vote passes?)",
			rep.WastedOutputs, max)
	}
}

// TestQuorumTerminalSplitFailsAndPenalizes: three voters, three
// distinct digests, and no fresh candidate to widen with — the vote is
// terminal. The chunk must fail promptly with the no-quorum error (not
// spin re-voting), and the voters outside the plurality take the
// byzantine penalty so a peer that repeatedly blocks quorum loses its
// selection rank instead of staying pristine.
func TestQuorumTerminalSplitFailsAndPenalizes(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ts-ctl"), "ts-ctl", Options{Resilience: chaosResilience()})
	var peers []PeerRef
	for _, label := range []string{"ts-w1", "ts-w2", "ts-w3"} {
		w := newService(t, n.Peer(label), label, Options{})
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	// All three corrupt at different cadences: three ballots, three
	// digests, majority of 2 unreachable.
	n.SetLinkFaults("ts-w1", simnet.LinkFaults{CorruptEvery: 1})
	n.SetLinkFaults("ts-w2", simnet.LinkFaults{CorruptEvery: 2})
	n.SetLinkFaults("ts-w3", simnet.LinkFaults{CorruptEvery: 3})

	// A livelocked vote fails at the stall deadline with the goroutine dump.
	rep, err := farmWithDeadline(t, context.Background(), ctl, chaosChunks(chaosSeed, 1, 6), FarmOptions{
		Body:           func() *taskgraph.Graph { return accumBody(t) },
		Peers:          peers,
		Quorum:         3,
		AttemptTimeout: 10 * time.Second,
	})
	if err == nil {
		t.Fatal("three-way split committed a chunk without a majority")
	}
	// Exactly the two non-plurality voters are penalized, and the
	// registry counter tracks the report.
	if rep.QuorumDisagreements != 2 {
		t.Errorf("quorum disagreements = %d, want 2", rep.QuorumDisagreements)
	}
	if snap := ctl.Resilience().Snapshot(); snap.QuorumDisagreements != rep.QuorumDisagreements {
		t.Errorf("registry disagreements = %d, report = %d", snap.QuorumDisagreements, rep.QuorumDisagreements)
	}
	penalized := 0
	for _, id := range []string{"ts-w1", "ts-w2", "ts-w3"} {
		if ctl.Health().Score(id) < 1 {
			penalized++
		}
	}
	if penalized < 2 {
		t.Errorf("only %d quorum-blocking peers lost health score, want >= 2", penalized)
	}
}

// TestStragglerRearmsAfterSkippedSpeculation: when the straggler timer
// fires while no backup peer is admissible (the only alternative's
// breaker is still open), the detector must keep watching instead of
// giving up for the rest of the chunk — once the breaker half-opens
// moments later, the re-armed timer probes the peer and launches the
// backup, which beats the crawling primary.
func TestStragglerRearmsAfterSkippedSpeculation(t *testing.T) {
	n := simnet.New()
	ctl := newService(t, n.Peer("ra-ctl"), "ra-ctl", Options{
		Resilience: chaosResilience(),
		Health:     health.Options{OpenTimeout: 60 * time.Millisecond},
	})
	w1 := newService(t, n.Peer("ra-w1"), "ra-w1", Options{})
	w2 := newService(t, n.Peer("ra-w2"), "ra-w2", Options{})
	peers := []PeerRef{
		{ID: "ra-w1", Addr: w1.Addr()},
		{ID: "ra-w2", Addr: w2.Addr()},
	}
	// The primary lands on crawling ra-w1 (ra-w2's breaker is open when
	// the chunk starts, and speculation never forces gated peers). The
	// straggler fires at 50ms into a multi-hundred-ms attempt, skips,
	// and must re-arm until ra-w2 half-opens at 60ms.
	n.SetLinkFaults("ra-w1", simnet.LinkFaults{Latency: 30 * time.Millisecond})
	ctl.Health().ReportDead("ra-w2")

	rep := runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, 1, 10), FarmOptions{
		Speculate:      true,
		SpeculateAfter: 50 * time.Millisecond,
	})
	if rep.SpeculationLaunches < 1 || rep.SpeculationWins < 1 {
		t.Fatalf("skipped speculation never retried: %+v", rep)
	}
	if rep.PeerChunks["ra-w2"] != 1 {
		t.Fatalf("backup on the revived peer did not win: %+v", rep.PeerChunks)
	}
}

// TestLatencyFeedsSpeculationThreshold: committed attempts feed the
// peer's latency window, so once history exists the straggler threshold
// derives from the observed p90 instead of the static fallback.
func TestLatencyFeedsSpeculationThreshold(t *testing.T) {
	tr := simnet.New()
	ctl := newService(t, tr.Peer("lt-ctl"), "lt-ctl", Options{Resilience: chaosResilience()})
	w := newService(t, tr.Peer("lt-w1"), "lt-w1", Options{})
	peers := []PeerRef{{ID: "lt-w1", Addr: w.Addr()}}

	runChaosFarm(t, ctl, peers, chaosChunks(chaosSeed, 4, 3), FarmOptions{})
	if _, ok := ctl.Health().LatencyQuantile("lt-w1", 0.9); !ok {
		t.Fatal("farm attempts recorded no latency samples")
	}
	opts := FarmOptions{SpeculateAfter: time.Hour, StragglerFactor: 2}.withFarmDefaults(ctl.res)
	if got := ctl.stragglerThreshold("lt-w1", opts); got >= time.Hour {
		t.Errorf("threshold ignored observed latency: %v", got)
	}
	if got := ctl.stragglerThreshold("lt-nohistory", opts); got != time.Hour {
		t.Errorf("no-history threshold = %v, want the SpeculateAfter fallback", got)
	}
}
