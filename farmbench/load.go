package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"consumergrid/internal/controller"
	"consumergrid/internal/taskgraph"
)

// clients is the closed loop's size: two tenants, each submitting farms
// back to back, matching the two vCPUs the benchmark was sized on.
const clients = 2

// farmRecord is what the output check needs after the run: the farm's
// serial (which regenerates its inputs) and the digest of what it
// committed.
type farmRecord struct {
	serial int64
	digest uint64
	err    error // RunFarm error or malformed output
}

// phaseResult is one closed-loop window's outcome.
type phaseResult struct {
	window time.Duration
	// inWindow counts chunks committed before the deadline; committed
	// counts every chunk of the phase's farms, including those that
	// committed after the deadline while the last farms finished.
	inWindow, committed int64
	farmMs, chunkMs     []float64
	records             []farmRecord

	// Summed from the farms' FarmReports.
	peerChunks                                    map[string]int64
	redespatches, wasted, specLaunches, specWins  int64
	disagreements                                 int64
	inflightSamples, goroutinePeak, breakerSample []float64
}

func (p *phaseResult) chunksPerS() float64 {
	return float64(p.inWindow) / p.window.Seconds()
}

// loadGen drives the closed loop against the current grid. Farm
// serials run on across grids, so no two farms of a run share inputs.
type loadGen struct {
	w      workload
	g      *grid
	in     *inputs
	body   func() *taskgraph.Graph
	serial [clients]int64 // next farm serial per client
	pr     *prober        // nil when not tracing
}

func newLoadGen(w workload, in *inputs, body func() *taskgraph.Graph) *loadGen {
	l := &loadGen{w: w, in: in, body: body}
	for c := range l.serial {
		l.serial[c] = int64(c) * 1_000_000
	}
	return l
}

func tenantOf(c int) string { return fmt.Sprintf("client-%d", c) }

// farmOptions are the workload's RunFarm options for one client.
func (l *loadGen) farmOptions(c int) controller.FarmOptions {
	o := controller.FarmOptions{Body: l.body, Tenant: tenantOf(c), Quorum: l.w.quorum}
	if l.w.speculate {
		o.Speculate = true
		o.SpeculateAfter = 30 * time.Millisecond
		o.MaxSpeculative = 2
	}
	return o
}

// run drives the closed loop: with d > 0 each client submits farms
// back to back until the deadline, otherwise each client runs n farms.
// It returns when the last farm has returned.
func (l *loadGen) run(d time.Duration, farmsPerClient int, tr *tracer) *phaseResult {
	res := &phaseResult{window: d, peerChunks: map[string]int64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := &phaseResult{peerChunks: map[string]int64{}}
			for k := 0; ; k++ {
				if farmsPerClient > 0 && k >= farmsPerClient {
					break
				}
				if farmsPerClient == 0 && !time.Now().Before(deadline) {
					break
				}
				l.oneFarm(c, deadline, tr, local)
			}
			mu.Lock()
			res.merge(local)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return res
}

func (p *phaseResult) merge(o *phaseResult) {
	p.window += o.window
	p.inWindow += o.inWindow
	p.committed += o.committed
	p.farmMs = append(p.farmMs, o.farmMs...)
	p.chunkMs = append(p.chunkMs, o.chunkMs...)
	p.records = append(p.records, o.records...)
	for k, v := range o.peerChunks {
		p.peerChunks[k] += v
	}
	p.redespatches += o.redespatches
	p.wasted += o.wasted
	p.specLaunches += o.specLaunches
	p.specWins += o.specWins
	p.disagreements += o.disagreements
	p.inflightSamples = append(p.inflightSamples, o.inflightSamples...)
	p.goroutinePeak = append(p.goroutinePeak, o.goroutinePeak...)
	p.breakerSample = append(p.breakerSample, o.breakerSample...)
}

// oneFarm submits one farm for client c and records its outcome. With
// a tracer, the farm's calls are recorded as spans and the per-layer
// probes run after it.
func (l *loadGen) oneFarm(c int, deadline time.Time, tr *tracer, out *phaseResult) {
	serial := l.serial[c]
	l.serial[c]++
	farmID := fmt.Sprintf("f%d", serial)
	root := tr.start(0, "client.farm", farmID)
	chunks := l.in.farm(serial)
	opts := l.farmOptions(c)
	if tr != nil {
		s := tr.start(root, "controller.ShardPeers", farmID)
		l.g.pool.ShardPeers(fmt.Sprintf("tenant/%s/farm/%d", tenantOf(c), serial))
		tr.end(s)
	}

	submit := time.Now()
	last := submit
	runSpan := tr.start(root, "controller.RunFarm", farmID)
	chunkSpan := tr.start(runSpan, "chunk.commit", farmID)
	opts.AfterChunk = func(int) {
		now := time.Now()
		out.chunkMs = append(out.chunkMs, ms(now.Sub(last)))
		last = now
		out.committed++
		if !now.After(deadline) {
			out.inWindow++
		}
		if tr != nil {
			tr.end(chunkSpan)
			chunkSpan = tr.start(runSpan, "chunk.commit", farmID)
			_, inflight, _ := l.g.ctlSvc.Tenants()
			out.inflightSamples = append(out.inflightSamples, float64(inflight))
			out.goroutinePeak = append(out.goroutinePeak, float64(runtime.NumGoroutine()))
		}
	}
	rep, err := l.g.ctl.RunFarm(context.Background(), chunks, opts)
	tr.drop(chunkSpan)
	tr.end(runSpan)
	out.farmMs = append(out.farmMs, ms(time.Since(submit)))

	rec := farmRecord{serial: serial, err: err}
	if err == nil {
		s := tr.start(root, "client.digest", farmID)
		if want := l.w.chunks * l.w.spectra; len(rep.Outputs) != want {
			rec.err = fmt.Errorf("farm %s committed %d outputs, want %d", farmID, len(rep.Outputs), want)
		} else {
			rec.digest, rec.err = outputDigest(rep.Outputs)
		}
		tr.end(s)
		for p, n := range rep.PeerChunks {
			out.peerChunks[p] += int64(n)
		}
		out.redespatches += rep.Redespatches
		out.wasted += rep.WastedOutputs
		out.specLaunches += rep.SpeculationLaunches
		out.specWins += rep.SpeculationWins
		out.disagreements += rep.QuorumDisagreements
	}
	out.records = append(out.records, rec)
	if l.pr != nil && tr != nil {
		l.pr.probe(c, root, farmID, chunks, out)
	}
	tr.end(root)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
