package service

// Property: re-despatch is idempotent. For any seed, launch mode and
// fault class, a farm that loses attempts — to a killed worker, dropped
// messages, a partition, or a byzantine voter — and replays them on
// alternate peers with the checkpointed state restored produces the
// same committed output stream AND the same final checkpoint as the
// uninterrupted run. This is the §3.6.2 migration guarantee the chaos
// harness relies on, checked across seeds for every way a chunk's
// attempt set can launch: one primary, primary plus speculative
// backups, and a quorum electorate (whole pool or one capability group).

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"consumergrid/internal/health"
	"consumergrid/internal/simnet"
	"consumergrid/internal/types"
)

// propNet builds a controller plus four workers w1..w4 on one simulated
// network and returns the services so a case can close them itself.
func propNet(t *testing.T, n *simnet.Network, ho health.Options, budget int) (ctl *Service, workers []*Service, peers []PeerRef) {
	t.Helper()
	ctl = newService(t, n.Peer("ctl"), "ctl", Options{
		Resilience: chaosResilience(), Health: ho, MaxInflightDespatches: budget,
	})
	for _, label := range []string{"w1", "w2", "w3", "w4"} {
		w := newService(t, n.Peer(label), label, Options{})
		workers = append(workers, w)
		peers = append(peers, PeerRef{ID: label, Addr: w.Addr()})
	}
	return ctl, workers, peers
}

func TestRedespatchIdempotencyProperty(t *testing.T) {
	type mode struct {
		name   string
		fo     FarmOptions
		budget int // controller's MaxInflightDespatches (0: unbounded)
	}
	modes := []mode{
		{"plain", FarmOptions{}, 0},
		{"spec", FarmOptions{Speculate: true, SpeculateAfter: 20 * time.Millisecond, MaxSpeculative: 2}, 0},
		{"quorum", FarmOptions{Quorum: 3}, 0},
		// w4 sits outside the committed group: it must never host a job.
		{"quorum-group", FarmOptions{Quorum: 3, Group: "cg-prop",
			GroupMembers: map[string]bool{"w1": true, "w2": true, "w3": true}}, 0},
		// Two despatch slots for three voters: the chunk must ballot in
		// batches, never blocking for a slot while it holds one.
		{"quorum-budget", FarmOptions{Quorum: 3}, 2},
	}
	// corrupter is the byzantine worker of the corrupt fault class.
	const corrupter = "w2"
	type fault struct {
		name       string
		quorumOnly bool
		health     health.Options
		apply      func(n *simnet.Network, fo *FarmOptions)
	}
	faults := []fault{
		// The chunk-0 worker dies before chunk 1 despatches.
		{"kill", false, health.Options{}, func(n *simnet.Network, fo *FarmOptions) {
			fo.AfterChunk = func(c int) {
				if c == 0 {
					n.Kill("w1")
				}
			}
		}},
		// Drops strike every peer alike. At the default breaker
		// threshold (3) they open every voter's breaker within a chunk,
		// and a quorum never forces a gated peer to top up its
		// electorate, so the chunk runs out of candidates — a selection
		// policy outcome, not a re-despatch one. A high threshold keeps
		// this row about replay.
		{"drop", false, health.Options{FailureThreshold: 1000}, func(n *simnet.Network, fo *FarmOptions) {
			n.SetLinkFaults("*", simnet.LinkFaults{DropEvery: 13})
			fo.ChunkAttempts = 24
		}},
		{"corrupt", true, health.Options{}, func(n *simnet.Network, fo *FarmOptions) {
			n.SetLinkFaults(corrupter, simnet.LinkFaults{CorruptEvery: 1})
		}},
		{"partition", false, health.Options{}, func(n *simnet.Network, fo *FarmOptions) {
			n.PartitionFor(300*time.Millisecond, []string{"ctl"}, []string{"w1"})
		}},
	}

	for _, seed := range []int64{1, 7, 42, 1000003, 987654321} {
		seed := seed
		t.Run(formatSeed(seed), func(t *testing.T) {
			const nChunks, perChunk = 3, 4
			chunks := chaosChunks(seed, nChunks, perChunk)

			// Uninterrupted reference run.
			refNet := simnet.New()
			refCtl, _, refPeers := propNet(t, refNet, health.Options{}, 0)
			ref := runChaosFarm(t, refCtl, refPeers, chunks, FarmOptions{Seed: seed})

			for _, m := range modes {
				for _, f := range faults {
					if f.quorumOnly && m.fo.Quorum <= 1 {
						continue
					}
					m, f := m, f
					t.Run(m.name+"/"+f.name, func(t *testing.T) {
						runtime.GC()
						before := runtime.NumGoroutine()

						n := simnet.New()
						ctl, workers, peers := propNet(t, n, f.health, m.budget)
						fo := m.fo
						fo.Seed = seed
						f.apply(n, &fo)
						var fired []int
						hook := fo.AfterChunk
						fo.AfterChunk = func(c int) {
							fired = append(fired, c)
							if hook != nil {
								hook(c)
							}
						}
						rep := runChaosFarm(t, ctl, peers, chunks, fo)

						assertSameOutputs(t, rep.Outputs, ref.Outputs)
						assertSameState(t, rep.FinalState, ref.FinalState)
						committed := 0
						for _, k := range rep.PeerChunks {
							committed += k
						}
						if committed != nChunks {
							t.Errorf("PeerChunks sum to %d commits, want %d (%v)", committed, nChunks, rep.PeerChunks)
						}
						if len(fired) != nChunks {
							t.Errorf("AfterChunk fired %v, want once per chunk", fired)
						}
						for i, c := range fired {
							if c != i {
								t.Errorf("AfterChunk fired %v, want chunks in order", fired)
								break
							}
						}
						if m.name == "plain" && f.name == "kill" && rep.Redespatches < 1 {
							t.Errorf("seed %d: kill caused no redespatch", seed)
						}
						if f.name == "drop" && n.Dropped() == 0 {
							t.Error("drop injection never fired; the case exercised nothing")
						}
						if f.name == "corrupt" {
							if rep.PeerChunks[corrupter] != 0 {
								t.Errorf("corrupter committed %d chunks", rep.PeerChunks[corrupter])
							}
							if n.Corrupted() > 0 && rep.QuorumDisagreements < 1 {
								t.Errorf("corrupter voted (%d payloads corrupted) but no disagreement was recorded",
									n.Corrupted())
							}
						}
						if m.fo.Group != "" {
							if jobs := workers[3].Jobs(); len(jobs) != 0 {
								t.Errorf("out-of-group worker w4 hosted %d jobs", len(jobs))
							}
						}

						stallDeadline(t, "closing the services", func() {
							for _, w := range workers {
								w.Close()
							}
							ctl.Close()
						})
						assertGoroutinesSettle(t, before)
					})
				}
			}
		})
	}
}

// assertGoroutinesSettle waits for the goroutine count to return to
// within 2 of before — the tolerance covers runtime-internal goroutines
// that come and go — and fails with every stack if it does not.
func assertGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRedespatchStateCarryMatchesMigration: the farm's chunk-to-chunk
// state carry is the same mechanism as explicit migration — feeding the
// farm's final checkpoint into a fresh despatch continues the
// accumulation exactly.
func TestRedespatchStateCarryMatchesMigration(t *testing.T) {
	const seed = 99
	chunks := chaosChunks(seed, 2, 5)
	n := simnet.New()
	ctl, peers := chaosNet(t, n)
	rep := runChaosFarm(t, ctl, peers, chunks, FarmOptions{Seed: seed})
	if len(rep.FinalState) == 0 {
		t.Fatal("farm over a stateful body returned no checkpoint")
	}

	// Continue on a fresh peer with the farm's checkpoint; the running
	// average must continue from all 10 farmed spectra, not restart.
	cont, _ := feedSpectra(t, ctl, peers[1], "carry-sink", "carry-in", 1, 50, rep.FinalState)

	// Reference: one uninterrupted accumulation over the same 11 inputs.
	var all []types.Data
	for _, c := range chunks {
		all = append(all, c...)
	}
	refNet := simnet.New()
	refCtl, refPeers := chaosNet(t, refNet)
	refRep := runChaosFarm(t, refCtl, refPeers, [][]types.Data{all}, FarmOptions{Seed: seed})
	refCont, _ := feedSpectra(t, refCtl, refPeers[1], "carry-ref-sink", "carry-ref-in", 1, 50, refRep.FinalState)

	assertSameOutputs(t, []types.Data{cont}, []types.Data{refCont})
}

func assertSameState(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("state keys %d, want %d (%v vs %v)", len(got), len(want), keys(got), keys(want))
	}
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Fatalf("state[%q] diverges after re-despatch: %x vs %x", k, got[k], w)
		}
	}
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func formatSeed(seed int64) string {
	return "seed" + strconv.FormatInt(seed, 10)
}
