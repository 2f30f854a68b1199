package main

import (
	"fmt"
	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/discovery"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/sandbox"
	"consumergrid/internal/service"
	"consumergrid/internal/simnet"
)

// donorIDs are the grid's volunteer donors. The IDs are fixed so that
// repeated set-ups reuse the same process-global metric series.
var donorIDs = []string{"w1", "w2", "w3", "w4"}

// advertTTL matches trianad's -advert-ttl default.
const advertTTL = time.Hour

// grid is one super-peer, one controller running the donor pool, and
// four donors, all in this process.
type grid struct {
	net *simnet.Network // nil on TCP loopback
	// transport gives a peer its transport: TCP, or on simnet one
	// tagged with the peer's ID so link faults and kills can name it.
	transport func(id string) jxtaserve.Transport
	super     *service.Service
	ctlSvc    *service.Service
	ctl       *controller.Controller
	pool      *controller.DonorPool
	donors    []*service.Service
	refs      []service.PeerRef
}

// services lists every service of the grid.
func (g *grid) services() []*service.Service {
	out := []*service.Service{g.super, g.ctlSvc}
	return append(out, g.donors...)
}

// daemonOptions mirrors the service.Options that trianad builds from
// its default flags: muxed binary wire with window 64, the data tier
// on, default resilience, and a 512 MiB sandbox budget.
func daemonOptions(id string, tr jxtaserve.Transport, ov *service.OverlayOptions) service.Options {
	return service.Options{
		PeerID:    id,
		Transport: tr,
		Addr:      addrFor(tr),
		Discovery: discovery.Config{Mode: discovery.ModeRendezvous},
		Overlay:   ov,
		Wire:      jxtaserve.WireOptions{Mux: true, Binary: true, Window: 64},
		DataTier:  service.DataTierOptions{Enable: true},
		Sandbox:   sandbox.Policy{MaxMemory: 512 << 20},
		CPUMHz:    2000,
		FreeRAMMB: 512,
	}
}

func addrFor(tr jxtaserve.Transport) string {
	if _, ok := tr.(jxtaserve.TCP); ok {
		return "127.0.0.1:0"
	}
	return ""
}

// newGrid starts the grid and returns once the controller's donor pool
// holds every donor.
func newGrid(useSimnet bool) (*grid, error) {
	g := &grid{transport: func(string) jxtaserve.Transport { return jxtaserve.TCP{} }}
	if useSimnet {
		g.net = simnet.New()
		g.transport = func(id string) jxtaserve.Transport { return g.net.Peer(id) }
	}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	var err error
	g.super, err = service.New(daemonOptions("super", g.transport("super"),
		&service.OverlayOptions{SuperPeer: true}))
	if err != nil {
		return nil, fmt.Errorf("super-peer: %w", err)
	}
	ring := &service.OverlayOptions{SuperPeers: []string{g.super.Addr()}}
	g.ctlSvc, err = service.New(daemonOptions("ctl", g.transport("ctl"), ring))
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	g.ctl = controller.New(g.ctlSvc, nil)
	g.pool, err = g.ctl.StartDonorPool(controller.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("donor pool: %w", err)
	}
	for _, id := range donorIDs {
		d, err := service.New(daemonOptions(id, g.transport(id), ring))
		if err != nil {
			return nil, fmt.Errorf("donor %s: %w", id, err)
		}
		g.donors = append(g.donors, d)
		g.refs = append(g.refs, service.PeerRef{ID: id, Addr: d.Addr()})
		if err := d.Advertise(advertTTL); err != nil {
			return nil, fmt.Errorf("donor %s advertise: %w", id, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.pool.Size() < len(donorIDs) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("donor pool holds %d of %d donors after 10s", g.pool.Size(), len(donorIDs))
		}
		time.Sleep(100 * time.Microsecond)
	}
	ok = true
	return g, nil
}

// close stops the pool and every service, donors first.
func (g *grid) close() {
	if g.pool != nil {
		g.pool.Close()
	}
	for _, d := range g.donors {
		d.Close()
	}
	if g.ctlSvc != nil {
		g.ctlSvc.Close()
	}
	if g.super != nil {
		g.super.Close()
	}
}
