package discovery

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"testing"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/overlay"
)

// TestSeenRingEvictsOldestFirst is the satellite-1 regression: the
// flood-dedup set must evict strictly oldest-first and never forget a
// recent query ID while staler ones survive.
func TestSeenRingEvictsOldestFirst(t *testing.T) {
	r := newSeenRing(4)
	for i := 1; i <= 4; i++ {
		if r.observe(fmt.Sprintf("q%d", i)) {
			t.Fatalf("q%d reported duplicate on first sight", i)
		}
	}
	if r.len() != 4 {
		t.Fatalf("len = %d, want 4", r.len())
	}
	// Fifth insertion evicts q1 — and only q1.
	r.observe("q5")
	if r.has("q1") {
		t.Fatal("oldest ID q1 survived eviction")
	}
	for i := 2; i <= 5; i++ {
		if !r.has(fmt.Sprintf("q%d", i)) {
			t.Fatalf("recent ID q%d was evicted before the stalest one", i)
		}
	}
	if r.len() != 4 {
		t.Fatalf("len = %d after eviction, want 4", r.len())
	}
}

func TestSeenRingDuplicatesDoNotEvict(t *testing.T) {
	r := newSeenRing(3)
	r.observe("a")
	r.observe("b")
	r.observe("c")
	// Re-observing a full ring's members must not rotate anything out.
	for i := 0; i < 10; i++ {
		if !r.observe("a") || !r.observe("b") || !r.observe("c") {
			t.Fatal("known ID reported as fresh")
		}
	}
	if !r.has("a") || !r.has("b") || !r.has("c") {
		t.Fatal("duplicate observations evicted a live ID")
	}
}

func TestSeenRingMemoryBounded(t *testing.T) {
	r := newSeenRing(16)
	for i := 0; i < 10000; i++ {
		r.observe(fmt.Sprintf("q%d", i))
	}
	if r.len() != 16 || len(r.set) != 16 || len(r.ids) != 16 {
		t.Fatalf("ring grew past capacity: len=%d set=%d ids=%d", r.len(), len(r.set), len(r.ids))
	}
	// The newest window is intact.
	for i := 9984; i < 10000; i++ {
		if !r.has(fmt.Sprintf("q%d", i)) {
			t.Fatalf("recent q%d missing from full ring", i)
		}
	}
}

// TestModuloRemapsNearlyAll pins the satellite-2 claim: growing the
// rendezvous list under the legacy hash-modulo placement moves almost
// every peer to a different home, while the shared consistent-hash
// placement (overlay.Ring.Primary) moves only ~1/(k+1).
func TestModuloRemapsNearlyAll(t *testing.T) {
	four := []string{"r0", "r1", "r2", "r3"}
	five := append(append([]string(nil), four...), "r4")

	modulo := func(rdv []string, peerID string) string {
		h := fnv.New32a()
		h.Write([]byte(peerID))
		return rdv[int(h.Sum32())%len(rdv)]
	}
	ring4 := overlay.NewRing(0, four...)
	ring5 := overlay.NewRing(0, five...)

	const peers = 2000
	moduloMoved, ringMoved := 0, 0
	for i := 0; i < peers; i++ {
		id := fmt.Sprintf("peer-%d", i)
		if modulo(four, id) != modulo(five, id) {
			moduloMoved++
		}
		if ring4.Primary(id) != ring5.Primary(id) {
			ringMoved++
		}
	}
	if frac := float64(moduloMoved) / peers; frac < 0.6 {
		t.Fatalf("modulo moved only %.0f%% of peers — doc claim no longer holds", frac*100)
	}
	if frac := float64(ringMoved) / peers; frac > 0.35 {
		t.Fatalf("ring placement moved %.0f%% of peers, want ~20%%", frac*100)
	}
}

// TestPlacementOverridesModulo checks flat rendezvous mode actually
// routes through the shared placement function when one is configured.
func TestPlacementOverridesModulo(t *testing.T) {
	rdv := []string{"r0", "r1", "r2"}
	ring := overlay.NewRing(0, rdv...)
	n := &Node{cfg: Config{
		Mode:       ModeRendezvous,
		Rendezvous: rdv,
		Placement:  ring.Primary,
	}}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("peer-%d", i)
		if got, want := n.homeRendezvous(id), ring.Primary(id); got != want {
			t.Fatalf("homeRendezvous(%s) = %s, want ring placement %s", id, got, want)
		}
	}
	// Without Placement the legacy modulo pick still applies.
	n.cfg.Placement = nil
	h := fnv.New32a()
	h.Write([]byte("peer-0"))
	if got, want := n.homeRendezvous("peer-0"), rdv[int(h.Sum32())%len(rdv)]; got != want {
		t.Fatalf("legacy homeRendezvous = %s, want %s", got, want)
	}
}

// TestIdleNodeHeapBounded bounds the live heap an idle discovery node
// costs — host, advert cache and agent — at the 1k-peer size of the
// largest simulated grids. The flood-dedup ring used to reserve all
// maxSeen slots up front, about 4.4 MB per node, so a 1k-node grid
// needed over 4 GB before a single query flooded.
//
// Measured on go1.24, linux/amd64 (2 vCPU): 2.4 KiB per node, against
// 4,546,039 B with the eagerly allocated ring. The 16 KiB bound leaves
// about 6.7x headroom for incidental growth and still fails any
// per-node reservation of the old kind by a factor of ~280.
func TestIdleNodeHeapBounded(t *testing.T) {
	const nodes = 1000
	const perNodeBound = 16 << 10
	tr := jxtaserve.NewInProc()
	before := liveHeap()
	kept := make([]*Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		h, err := jxtaserve.NewHost(fmt.Sprintf("idle-%d", i), tr, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		kept = append(kept, NewNode(h, advert.NewCache(), Config{Mode: ModeFlood}))
	}
	perNode := (liveHeap() - before) / nodes
	runtime.KeepAlive(kept)
	t.Logf("live heap per idle node: %d B", perNode)
	if perNode > perNodeBound {
		t.Fatalf("idle discovery node holds %d B of live heap, bound %d B", perNode, perNodeBound)
	}
}

// liveHeap forces a collection and reads the live heap it measured.
func liveHeap() int64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}
