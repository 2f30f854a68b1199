package main

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/chunkstore"
	"consumergrid/internal/health"
	"consumergrid/internal/overlay"
	"consumergrid/internal/service"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
)

// probeTimeout bounds a probe's wait for pipe output or a push event.
const probeTimeout = 5 * time.Second

// prober times one call into each layer's public API after every traced
// farm. Each client owns a push subscription, so the two clients' push
// probes never read each other's events.
type prober struct {
	g        *grid
	body     func() *taskgraph.Graph
	tr       *tracer
	push     [clients]<-chan overlay.Event
	seq      [clients]int
	failures atomic.Int64
	payload  atomic.Int64 // marshalled bytes of the probed chunks
	chunks   atomic.Int64 // chunks marshalled
}

func pushName(c int) string { return fmt.Sprintf("farmbench-probe-%d", c) }

func newProber(g *grid, body func() *taskgraph.Graph, tr *tracer) (*prober, error) {
	p := &prober{g: g, body: body, tr: tr}
	for c := 0; c < clients; c++ {
		ch, err := g.ctlSvc.Overlay().Subscribe(pushName(c), advert.Query{Kind: advert.KindPeer, Name: pushName(c)})
		if err != nil {
			p.close()
			return nil, fmt.Errorf("push probe subscription: %w", err)
		}
		p.push[c] = ch
	}
	return p, nil
}

// probeStats are the prober's counts, copied out so that nothing
// holds the grid after it closes.
type probeStats struct {
	failures, payload, chunks int64
}

func (s *probeStats) add(o probeStats) {
	s.failures += o.failures
	s.payload += o.payload
	s.chunks += o.chunks
}

func (p *prober) stats() probeStats {
	return probeStats{p.failures.Load(), p.payload.Load(), p.chunks.Load()}
}

func (p *prober) close() {
	for c := 0; c < clients; c++ {
		if p.push[c] != nil {
			p.g.ctlSvc.Overlay().Unsubscribe(pushName(c))
		}
	}
}

// timed runs f inside a span and counts its error as a probe failure.
func (p *prober) timed(parent int64, name, farm string, f func() error) {
	s := p.tr.start(parent, name, farm)
	err := f()
	p.tr.end(s)
	if err != nil {
		p.tr.drop(s)
		p.failures.Add(1)
	}
}

// probe runs one round of layer probes for client c after the farm.
func (p *prober) probe(c int, root int64, farm string, chunks [][]types.Data, out *phaseResult) {
	p.seq[c]++
	k := p.seq[c]
	di := (k*clients + c) % len(p.g.donors)
	donor, ref := p.g.donors[di], p.g.refs[di]
	ctl := p.g.ctlSvc
	parent := p.tr.start(root, "client.probes", farm)
	defer p.tr.end(parent)

	p.despatchProbe(parent, farm, ref, chunks[0], c)
	p.timed(parent, "jxtaserve.ping", farm, func() error {
		_, err := ctl.Host().Request(ref.Addr, service.MethodPing, nil, nil)
		return err
	})

	digest, _, err := chunkstore.DigestData(chunks[0][0])
	if err != nil {
		p.failures.Add(1)
	} else {
		p.timed(parent, "chunkstore.fetch_super", farm, func() error {
			_, err := donor.Host().FetchChunk(p.g.super.Addr(), digest, probeTimeout)
			return err
		})
		p.timed(parent, "chunkstore.fetch_controller", farm, func() error {
			_, err := donor.Host().FetchChunk(ctl.Addr(), digest, probeTimeout)
			return err
		})
	}

	p.pushProbe(parent, farm, c, k)
	p.timed(parent, "overlay.Query", farm, func() error {
		_, err := ctl.Overlay().Query(advert.Query{Kind: advert.KindService, Name: service.ServiceType}, 0)
		return err
	})

	var payloads [][]byte
	p.timed(parent, "types.Marshal", farm, func() error {
		for _, d := range chunks[0] {
			b, err := types.Marshal(d)
			if err != nil {
				return err
			}
			payloads = append(payloads, b)
		}
		return nil
	})
	p.timed(parent, "types.Unmarshal", farm, func() error {
		for _, b := range payloads {
			if _, err := types.Unmarshal(b); err != nil {
				return err
			}
		}
		return nil
	})
	for _, b := range payloads {
		p.payload.Add(int64(len(b)))
	}
	p.chunks.Add(1)

	ids := make([]string, len(p.g.refs))
	for i, r := range p.g.refs {
		ids[i] = r.ID
	}
	p.timed(parent, "health.Rank", farm, func() error {
		ctl.Health().Rank(ids)
		return nil
	})
	open := 0
	for _, h := range ctl.Health().Snapshot() {
		if h.State == health.Open {
			open++
		}
	}
	out.breakerSample = append(out.breakerSample, float64(open))
}

// despatchProbe makes one farm-shaped attempt by hand: open the result
// pipe, Despatch the body, bind the donor's input pipe, stream one
// chunk, collect its outputs and WaitRemoteState.
func (p *prober) despatchProbe(parent int64, farm string, ref service.PeerRef, chunk []types.Data, c int) {
	ctl := p.g.ctlSvc
	prefix := fmt.Sprintf("farmbench/%s/probe", farm)
	pipe, _, err := ctl.Host().OpenInput(prefix+"/out", len(chunk)+1)
	if err != nil {
		p.failures.Add(1)
		return
	}
	defer pipe.Close()
	pipe.ExpectEOFs(1)

	var job *service.RemoteJob
	p.timed(parent, "service.Despatch", farm, func() error {
		job, err = ctl.Despatch(service.RemotePart{
			Peer:       ref,
			Body:       p.body(),
			InLabels:   []string{prefix + "/in"},
			OutTargets: []service.PipeTarget{{Label: prefix + "/out", Addr: ctl.Addr()}},
			Iterations: 1,
			Tenant:     tenantOf(c),
		}, ctl.Addr())
		return err
	})
	if err != nil {
		return
	}
	var pipeErr error
	p.timed(parent, "jxtaserve.pipe", farm, func() error {
		out, err := ctl.Host().BindOutput(job.InAds[0])
		if err != nil {
			pipeErr = err
			return err
		}
		for _, d := range chunk {
			if err := out.Send(d); err != nil {
				out.Close()
				pipeErr = err
				return err
			}
		}
		out.Close()
		timeout := time.After(probeTimeout)
		for got := 0; ; got++ {
			select {
			case _, ok := <-pipe.C:
				if !ok {
					if got != len(chunk) {
						pipeErr = fmt.Errorf("probe got %d outputs, want %d", got, len(chunk))
					}
					return pipeErr
				}
			case <-timeout:
				pipeErr = fmt.Errorf("probe outputs timed out")
				return pipeErr
			}
		}
	})
	if pipeErr != nil {
		_ = ctl.CancelRemote(job) // best effort; the probe already counted as failed
		return
	}
	p.timed(parent, "service.WaitRemoteState", farm, func() error {
		_, _, err := ctl.WaitRemoteState(job)
		return err
	})
}

// pushProbe publishes a fresh version of client c's probe advert and
// times its delivery on c's subscription. The publish span is a child
// of the push span, so the push span's self time is the delivery lag
// after the publish was acknowledged.
func (p *prober) pushProbe(parent int64, farm string, c, k int) {
	ad := &advert.Advertisement{
		Kind:    advert.KindPeer,
		ID:      pushName(c),
		PeerID:  p.g.ctlSvc.PeerID(),
		Name:    pushName(c),
		Expires: time.Now().Add(time.Minute),
	}
	want := strconv.Itoa(k)
	ad.SetAttr("seq", want)
	push := p.tr.start(parent, "overlay.push", farm)
	var err error
	p.timed(push, "overlay.Publish", farm, func() error {
		err = p.g.ctlSvc.Overlay().Publish(ad)
		return err
	})
	if err != nil {
		p.tr.drop(push)
		return
	}
	timeout := time.After(probeTimeout)
	for {
		select {
		case ev := <-p.push[c]:
			if ev.Ad != nil && ev.Ad.Attr("seq") == want {
				p.tr.end(push)
				return
			}
		case <-timeout:
			p.tr.drop(push)
			p.failures.Add(1)
			return
		}
	}
}
