package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"consumergrid/internal/metrics"
	"consumergrid/internal/service"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
)

// segment is the longest stretch of the measured window one grid
// serves. Each segment starts a fresh grid, warms it up, measures, and
// closes it. Donors keep every hosted job's inputs and results for
// their lifetime, so a grid's live heap grows with the bytes it has
// farmed (about 200 MB/s on farm-bulk-quorum); short segments bound the
// benchmark's memory. Many short segments also give many independent
// grids, whose median throughput is steadier than one long grid's on
// farm-churn, where speculation makes each grid's history diverge.
const segment = time.Second

// extraSetups are set-up rounds closed straight away, before the
// segments, so that setup_s is a median over more samples than there
// are segments.
const extraSetups = 4

// warmupFarms is how many untimed farms each client runs on a fresh
// grid before its segment is timed.
const warmupFarms = 2

// Teardown slack and how long the teardown check waits for it (see
// teardown).
const (
	goroutineSlack = 2
	heapSlackBytes = 4 << 20
	teardownWait   = 10 * time.Second
)

type config struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
}

// spanDir is where a traced run writes its spans, relative to the
// working directory.
const spanDir = ".bench_build/spans"

// counter names an entry of counters.
type counter int

const (
	cEgress counter = iota
	cDespatches
	cDespatchFails
	cMsgs
	cBytes
	cPoolEvents
	cFetchRing
	cFetchPeer
	cFetchController
	cHits
	cMisses
	cBytesSaved
	cAllocBytes
	cAllocObjects
	cGCCPU
	cTotalCPU
	nCounters
)

// counters are the cumulative counters the modules and the runtime
// export, read at phase boundaries.
type counters [nCounters]float64

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

var runtimeSamples = []rtmetrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() []float64 {
	s := append([]rtmetrics.Sample(nil), runtimeSamples...)
	rtmetrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() float64 {
	runtime.GC()
	return readRuntime()[4]
}

func readCounters(g *grid) counters {
	reg := metrics.Default()
	var c counters
	c[cEgress] = float64(g.ctlSvc.Resilience().Snapshot().FarmEgressBytes)
	c[cDespatches] = float64(reg.Counter("service_despatches_total").Value())
	c[cDespatchFails] = float64(reg.Counter("service_despatch_failures_total").Value())
	c[cPoolEvents] = float64(g.pool.Events())
	if g.net != nil {
		c[cMsgs], c[cBytes] = float64(g.net.Messages()), float64(g.net.Bytes())
	} else {
		c[cMsgs] = float64(reg.Counter("jxtaserve_messages_sent_total").Value())
		c[cBytes] = float64(reg.Counter("jxtaserve_bytes_sent_total").Value())
	}
	for _, d := range g.donors {
		st := d.ChunkStore().Snapshot()
		c[cFetchRing] += float64(st.FetchRing)
		c[cFetchPeer] += float64(st.FetchPeer)
		c[cFetchController] += float64(st.FetchController)
		c[cHits] += float64(st.Hits)
		c[cMisses] += float64(st.Misses)
		c[cBytesSaved] += float64(st.BytesSaved)
	}
	rt := readRuntime()
	c[cAllocBytes], c[cAllocObjects], c[cGCCPU], c[cTotalCPU] = rt[0], rt[1], rt[2], rt[3]
	return c
}

// startChurn applies the churn workload's faults: w1's links are slow,
// w2 drops every 97th message, and a seeded schedule takes one donor at
// a time off the network for 100ms in every 400ms, rotating through the
// donors. A donor that comes back re-advertises, as a reconnecting
// volunteer re-enrols, so the donor pool takes push updates while farms
// read candidates. The returned stop ends the schedule and brings every
// donor back.
func startChurn(g *grid, seed int64, total time.Duration) (stop func()) {
	n := g.net
	n.FaultSeed(seed)
	n.SetLinkFaults("w1", simnet.LinkFaults{Latency: 15 * time.Millisecond})
	n.SetLinkFaults("w2", simnet.LinkFaults{DropEvery: 97})
	rng := rand.New(rand.NewSource(seed))
	const slot, down = 400 * time.Millisecond, 100 * time.Millisecond
	var events []simnet.Event
	var order []int
	for k := 0; time.Duration(k)*slot < total; k++ {
		if len(order) == 0 {
			order = rng.Perm(len(g.donors))
		}
		d := order[0]
		order = order[1:]
		at := time.Duration(k)*slot + time.Duration(rng.Int63n(int64(slot-down)))
		id, donor := donorIDs[d], g.donors[d]
		events = append(events,
			simnet.Event{At: at, Do: func(n *simnet.Network) { n.Kill(id) }},
			simnet.Event{At: at + down, Do: func(n *simnet.Network) {
				n.Restart(id)
				// Best effort: a lost re-advert only means the pool
				// sees no push for this rejoin.
				_ = donor.Advertise(advertTTL)
			}})
	}
	stopSchedule := n.Schedule(events...)
	return func() {
		stopSchedule()
		for _, id := range donorIDs {
			n.Restart(id)
		}
	}
}

// measurement is everything a run keeps once its grids have closed.
// Phase results and counter deltas are summed over the segments.
type measurement struct {
	setups         []float64 // seconds per set-up
	peerHeapKB     float64   // per service, first set-up over the baseline
	oneGenHeap     float64   // live heap after the first set-up closed
	heapLiveMB     []float64 // per segment
	rates          []float64 // chunks/s per segment, untraced
	tracedRates    []float64 // chunks/s per segment, traced
	warm, a, b     *phaseResult
	delta          counters // over the untraced phases
	spanM          map[string]metric
	probes         probeStats
	baseGoroutines int
	baseHeap       float64
}

// setup starts a grid and records how long it took.
func (m *measurement) setup(w workload) (*grid, error) {
	start := time.Now()
	g, err := newGrid(w.simnet)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m.setups = append(m.setups, time.Since(start).Seconds())
	return g, nil
}

// measure runs the window as a sequence of segments, each on its own
// grid. In a traced run each segment measures an untraced first half,
// for the counters and the tracing overhead, then a traced second half
// for the spans. Nothing it returns references a grid, so the teardown
// check sees only what the program itself retains.
func measure(cfg config, in *inputs, body func() *taskgraph.Graph) (*measurement, error) {
	w := cfg.w
	m := &measurement{
		baseGoroutines: runtime.NumGoroutine(),
		baseHeap:       liveHeap(),
		warm:           &phaseResult{peerChunks: map[string]int64{}},
		a:              &phaseResult{peerChunks: map[string]int64{}},
	}
	for i := 0; i < extraSetups; i++ {
		g, err := m.setup(w)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			m.peerHeapKB = (liveHeap() - m.baseHeap) / float64(len(g.services())) / 1024
		}
		g.close()
		if i == 0 {
			m.oneGenHeap = liveHeap()
		}
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		m.b = &phaseResult{peerChunks: map[string]int64{}}
	}
	lg := newLoadGen(w, in, body)
	window := time.Duration(cfg.seconds) * time.Second
	segments := int((window + segment - 1) / segment)
	for k := 0; k < segments; k++ {
		d := window / time.Duration(segments)
		if err := m.segment(cfg, lg, d, int64(k), tr); err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		spans := tr.closed()
		m.spanM = spanMetrics(spans, len(m.b.records))
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("%s: %d spans written to %s\n", w.name, len(spans), path)
	}
	return m, nil
}

// segment measures d of the window on a fresh grid.
func (m *measurement) segment(cfg config, lg *loadGen, d time.Duration, k int64, tr *tracer) error {
	w := cfg.w
	g, err := m.setup(w)
	if err != nil {
		return err
	}
	defer g.close()
	if w.churn {
		// The schedule outlives the warm-up and the segment; the tail
		// covers the last farms finishing after the deadline.
		stop := startChurn(g, cfg.seed*1000+k, d+30*time.Second)
		defer stop()
	}
	lg.g = g
	m.warm.merge(lg.run(0, warmupFarms, nil))

	untraced := d
	if tr != nil {
		untraced = d / 2
	}
	before := readCounters(g)
	a := lg.run(untraced, 0, nil)
	m.rates = append(m.rates, a.chunksPerS())
	m.a.merge(a)
	m.delta.add(readCounters(g).minus(before))
	if tr != nil {
		pr, err := newProber(g, lg.body, tr)
		if err != nil {
			return err
		}
		lg.pr = pr
		b := lg.run(d-untraced, 0, tr)
		m.tracedRates = append(m.tracedRates, b.chunksPerS())
		m.b.merge(b)
		lg.pr = nil
		pr.close()
		m.probes.add(pr.stats())
	}
	lg.g = nil
	m.heapLiveMB = append(m.heapLiveMB, liveHeap()/(1<<20))
	return nil
}

// runWorkload measures the workload, checks the teardown and every
// farm's outputs, and returns the metrics.
func runWorkload(cfg config) (*result, error) {
	w := cfg.w
	body, err := newBody()
	if err != nil {
		return nil, err
	}
	in := newInputs(w, cfg.seed)
	m, err := measure(cfg, in, body)
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	retainedMB := (liveHeap() - m.baseHeap) / (1 << 20)
	newHeapKB, err := teardown(w, m.baseGoroutines, m.oneGenHeap)
	if err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "farmbench: %s: teardown: %v\n", w.name, err)
	}
	fmt.Printf("%s: live heap retained after the grid closed: %.1f MiB over the pre-setup baseline\n", w.name, retainedMB)

	// Output check, after the grid is gone so it never competes with
	// the measured window.
	var runTimes []float64
	for _, p := range []*phaseResult{m.warm, m.a, m.b} {
		if p == nil {
			continue
		}
		for _, rec := range p.records {
			res.Attempted++
			if rec.err != nil {
				res.Failed++
				fmt.Fprintf(os.Stderr, "farmbench: %s: farm %d failed: %v\n", w.name, rec.serial, rec.err)
				continue
			}
			want, times, err := reference(body, in.farm(rec.serial))
			if err != nil {
				return nil, err
			}
			for _, t := range times {
				runTimes = append(runTimes, us(t))
			}
			if want != rec.digest {
				res.Failed++
				fmt.Fprintf(os.Stderr, "farmbench: %s: farm %d outputs differ from the reference\n", w.name, rec.serial)
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	fmt.Printf("%s: seed %d, %ds window, farms_attempted %d, farms_failed %d, failed_farm_ratio %.4f\n",
		w.name, cfg.seed, cfg.seconds, res.Attempted, res.Failed, div(float64(res.Failed), float64(res.Attempted)))
	fmt.Printf("%s: setup_s samples %v\n", w.name, m.setups)
	if cfg.traced {
		perLayer(res, m, runTimes, w.quorum, newHeapKB, retainedMB)
	} else {
		endToEnd(res, m)
	}
	return res, nil
}

// teardown checks that closing the grid released what the run built
// up. A closed service stays reachable until a service with the same
// peer ID replaces it, because metrics.Default() keeps its resilience
// counters bound; so after the measured grid closes, one more grid is
// started and closed, which frees the measured grid, and the heap must
// then come back to within heapSlackBytes of the heap after the first
// set-up round closed (one idle grid retained in both). Goroutines must
// come back to within goroutineSlack of the pre-setup baseline. The
// extra grid also hosts the service.New + Advertise heap probe, whose
// own retained size is subtracted. It returns that probe's size in KiB.
func teardown(w workload, baseGoroutines int, oneGenHeap float64) (float64, error) {
	g, err := newGrid(w.simnet)
	if err != nil {
		return 0, fmt.Errorf("replacement grid: %w", err)
	}
	newHeapKB, err := serviceNewHeapKB(g)
	g.close()
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(teardownWait)
	for {
		n, h := runtime.NumGoroutine(), liveHeap()-newHeapKB*1024
		if n <= baseGoroutines+goroutineSlack && h <= oneGenHeap+heapSlackBytes {
			return newHeapKB, nil
		}
		if time.Now().After(deadline) {
			return newHeapKB, fmt.Errorf("%d goroutines (baseline %d, slack %d); live heap %.0f B (one idle grid retained: %.0f B, slack %d)",
				n, baseGoroutines, goroutineSlack, h, oneGenHeap, heapSlackBytes)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serviceNewHeapKB measures the live heap one more donor costs: a
// service.New with the daemon options plus its Advertise.
func serviceNewHeapKB(g *grid) (float64, error) {
	before := liveHeap()
	opts := daemonOptions("extra", g.transport("extra"), &service.OverlayOptions{SuperPeers: []string{g.super.Addr()}})
	s, err := service.New(opts)
	if err != nil {
		return 0, fmt.Errorf("extra service: %w", err)
	}
	defer s.Close()
	if err := s.Advertise(advertTTL); err != nil {
		return 0, fmt.Errorf("extra service advertise: %w", err)
	}
	return (liveHeap() - before) / 1024, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
