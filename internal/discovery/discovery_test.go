package discovery

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/jxtaserve"
)

// testPeer bundles a host, cache and node.
type testPeer struct {
	host *jxtaserve.Host
	node *Node
}

func newPeer(t *testing.T, tr jxtaserve.Transport, id string, cfg Config) *testPeer {
	t.Helper()
	h, err := jxtaserve.NewHost(id, tr, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return &testPeer{host: h, node: NewNode(h, advert.NewCache(), cfg)}
}

func peerAd(id string, cpu int) *advert.Advertisement {
	ad := &advert.Advertisement{
		Kind: advert.KindPeer, ID: "ad-" + id, PeerID: id, Addr: "addr-" + id,
	}
	ad.SetAttr(advert.AttrCPUMHz, fmt.Sprintf("%d", cpu))
	return ad
}

func TestRendezvousPublishAndDiscover(t *testing.T) {
	tr := jxtaserve.NewInProc()
	rdv := newPeer(t, tr, "rdv", Config{Mode: ModeRendezvous, IsRendezvous: true})
	cfg := Config{Mode: ModeRendezvous, Rendezvous: []string{rdv.host.Addr()}}
	a := newPeer(t, tr, "peer-a", cfg)
	b := newPeer(t, tr, "peer-b", cfg)

	if err := a.node.Publish(peerAd("peer-a", 2000)); err != nil {
		t.Fatal(err)
	}
	if err := a.node.Publish(peerAd("peer-a2", 500)); err != nil {
		t.Fatal(err)
	}
	// b discovers a's adverts through the rendezvous.
	got, err := b.node.Discover(advert.Query{Kind: advert.KindPeer,
		MinAttrs: map[string]float64{advert.AttrCPUMHz: 1000}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PeerID != "peer-a" {
		t.Fatalf("discover = %+v", got)
	}
	// Attribute filtering happened at the rendezvous.
	all, _ := b.node.Discover(advert.Query{Kind: advert.KindPeer}, 0)
	if len(all) != 2 {
		t.Fatalf("unfiltered = %d adverts", len(all))
	}
	// Stats recorded.
	if a.node.Stats().Published.Load() != 2 {
		t.Errorf("Published = %d", a.node.Stats().Published.Load())
	}
	if b.node.Stats().QueriesSent.Load() != 2 {
		t.Errorf("QueriesSent = %d", b.node.Stats().QueriesSent.Load())
	}
}

func TestRendezvousLimit(t *testing.T) {
	tr := jxtaserve.NewInProc()
	rdv := newPeer(t, tr, "rdv", Config{Mode: ModeCentral, IsRendezvous: true})
	cfg := Config{Mode: ModeCentral, Rendezvous: []string{rdv.host.Addr()}}
	a := newPeer(t, tr, "pub", cfg)
	for i := 0; i < 10; i++ {
		if err := a.node.Publish(peerAd(fmt.Sprintf("p%d", i), 1000)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.node.Discover(advert.Query{Kind: advert.KindPeer}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limit ignored: %d", len(got))
	}
}

func TestPublishToNonRendezvousRejected(t *testing.T) {
	tr := jxtaserve.NewInProc()
	plain := newPeer(t, tr, "plain", Config{Mode: ModeRendezvous})
	pub := newPeer(t, tr, "pub", Config{Mode: ModeRendezvous,
		Rendezvous: []string{plain.host.Addr()}})
	err := pub.node.Publish(peerAd("pub", 100))
	if err == nil || !strings.Contains(err.Error(), "not a rendezvous") {
		t.Fatalf("err = %v", err)
	}
}

func TestRendezvousDeadServerDoesNotKillDiscovery(t *testing.T) {
	tr := jxtaserve.NewInProc()
	rdv := newPeer(t, tr, "rdv", Config{Mode: ModeRendezvous, IsRendezvous: true})
	dead, _ := jxtaserve.NewHost("dead", tr, "")
	deadAddr := dead.Addr()
	dead.Close()
	cfg := Config{Mode: ModeRendezvous, Rendezvous: []string{deadAddr, rdv.host.Addr()}}
	// Publish targets the home rendezvous by hash; try peers until one
	// homes onto the live server.
	a := newPeer(t, tr, "peer-a", cfg)
	published := false
	for i := 0; i < 8 && !published; i++ {
		ad := peerAd(fmt.Sprintf("peer-%d", i), 1000)
		if err := a.node.Publish(ad); err == nil {
			published = true
		}
	}
	if !published {
		t.Skip("all trial peers homed onto the dead rendezvous")
	}
	got, err := a.node.Discover(advert.Query{Kind: advert.KindPeer}, 0)
	if err != nil {
		t.Fatalf("discovery failed despite live rendezvous: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no adverts found")
	}
}

// buildFloodRing wires n peers in a ring with degree 2 (each knows the
// next and previous peer).
func buildFloodRing(t *testing.T, tr jxtaserve.Transport, n, ttl int) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, n)
	for i := range peers {
		peers[i] = newPeer(t, tr, fmt.Sprintf("p%d", i), Config{
			Mode: ModeFlood, TTL: ttl, QueryTimeout: 300 * time.Millisecond})
	}
	for i, p := range peers {
		p.node.AddNeighbor(peers[(i+1)%n].host.Addr())
		p.node.AddNeighbor(peers[(i+n-1)%n].host.Addr())
	}
	return peers
}

func TestFloodFindsWithinTTL(t *testing.T) {
	tr := jxtaserve.NewInProc()
	peers := buildFloodRing(t, tr, 10, 4)
	// Peer 3 holds the advert; peer 0 queries. Distance 3 <= TTL 4.
	target := peerAd("p3", 1500)
	if err := peers[3].node.Publish(target); err != nil {
		t.Fatal(err)
	}
	got, err := peers[0].node.Discover(advert.Query{Kind: advert.KindPeer}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PeerID != "p3" {
		t.Fatalf("flood found %+v", got)
	}
}

// TestFloodOriginIgnoresEcho: neighbours forward a flood query back to
// its origin, which must drop the echo instead of flooding its own
// query again with the echo's lower TTL. That re-flood could reach a
// peer ahead of the original copy, and the dedup then dropped the copy
// that would have gone further, so TestFloodFindsWithinTTL failed
// intermittently.
func TestFloodOriginIgnoresEcho(t *testing.T) {
	tr := jxtaserve.NewInProc()
	peers := buildFloodRing(t, tr, 6, 3)
	// With no limit, Discover waits out its QueryTimeout, by which time
	// every echo has arrived.
	if _, err := peers[0].node.Discover(advert.Query{Kind: advert.KindPeer}, 0); err != nil {
		t.Fatal(err)
	}
	st := peers[0].node.Stats()
	if st.QueriesHandled.Load() == 0 {
		t.Fatal("no echo reached the origin; the case exercised nothing")
	}
	if n := st.QueriesForwarded.Load(); n != 0 {
		t.Fatalf("origin re-flooded its own query %d times", n)
	}
}

func TestFloodTTLBoundsReach(t *testing.T) {
	tr := jxtaserve.NewInProc()
	peers := buildFloodRing(t, tr, 12, 2)
	// Advert at distance 5 in both directions (peer 6 in a 12-ring, TTL 2
	// reaches distance 2 only).
	if err := peers[6].node.Publish(peerAd("p6", 1500)); err != nil {
		t.Fatal(err)
	}
	got, err := peers[0].node.Discover(advert.Query{Kind: advert.KindPeer, PeerID: "p6"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("TTL 2 reached distance 6: %+v", got)
	}
	// Message amplification recorded on intermediate peers.
	var forwarded int64
	for _, p := range peers {
		forwarded += p.node.Stats().QueriesForwarded.Load()
	}
	if forwarded == 0 {
		t.Error("no forwarding recorded")
	}
}

func TestFloodDedupeStopsEcho(t *testing.T) {
	tr := jxtaserve.NewInProc()
	peers := buildFloodRing(t, tr, 4, 8) // TTL larger than ring: echoes possible
	if err := peers[2].node.Publish(peerAd("p2", 1500)); err != nil {
		t.Fatal(err)
	}
	got, err := peers[0].node.Discover(advert.Query{Kind: advert.KindPeer, PeerID: "p2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("dedupe failed: %d copies", len(got))
	}
	// Each peer handles the query a bounded number of times (once per
	// neighbour edge at most, not exponential).
	for i, p := range peers {
		if h := p.node.Stats().QueriesHandled.Load(); h > 8 {
			t.Errorf("peer %d handled %d queries", i, h)
		}
	}
}

func TestFloodLocalHitNeedsNoNetwork(t *testing.T) {
	tr := jxtaserve.NewInProc()
	solo := newPeer(t, tr, "solo", Config{Mode: ModeFlood, QueryTimeout: 50 * time.Millisecond})
	if err := solo.node.Publish(peerAd("solo", 100)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := solo.node.Discover(advert.Query{Kind: advert.KindPeer}, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("local hit = %v, %v", got, err)
	}
	// No neighbours: the full timeout still applies only when remote
	// results are possible; with zero neighbours we still wait, so just
	// sanity-bound the latency.
	if time.Since(start) > 2*time.Second {
		t.Error("local discovery absurdly slow")
	}
}

func TestFloodLimitShortCircuits(t *testing.T) {
	tr := jxtaserve.NewInProc()
	peers := buildFloodRing(t, tr, 6, 4)
	for i := 1; i < 6; i++ {
		if err := peers[i].node.Publish(peerAd(fmt.Sprintf("p%d", i), 1500)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	got, err := peers[0].node.Discover(advert.Query{Kind: advert.KindPeer}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d", len(got))
	}
	if time.Since(start) >= 300*time.Millisecond {
		t.Error("limit did not short-circuit the timeout")
	}
}

func TestNeighborsDedupe(t *testing.T) {
	tr := jxtaserve.NewInProc()
	p := newPeer(t, tr, "p", Config{Mode: ModeFlood})
	p.node.AddNeighbor("a")
	p.node.AddNeighbor("a")
	p.node.AddNeighbor("b")
	if got := p.node.Neighbors(); len(got) != 2 {
		t.Errorf("neighbors = %v", got)
	}
}

func TestAdvertListCodec(t *testing.T) {
	ads := []*advert.Advertisement{peerAd("x", 1), peerAd("y", 2)}
	b, err := advert.EncodeList(ads)
	if err != nil {
		t.Fatal(err)
	}
	got, err := advert.DecodeList(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].PeerID != "x" || got[1].PeerID != "y" {
		t.Fatalf("decoded %+v", got)
	}
	empty, err := advert.EncodeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := advert.DecodeList(empty); err != nil || len(got) != 0 {
		t.Errorf("empty list = %v, %v", got, err)
	}
	if _, err := advert.DecodeList(nil); err == nil {
		t.Error("nil buffer decoded")
	}
	if _, err := advert.DecodeList(b[:len(b)-3]); err == nil {
		t.Error("truncated list decoded")
	}
}

func TestModeString(t *testing.T) {
	if ModeRendezvous.String() != "rendezvous" || ModeFlood.String() != "flood" ||
		ModeCentral.String() != "central" || Mode(9).String() != "unknown" {
		t.Error("mode names wrong")
	}
}
