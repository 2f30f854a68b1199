package main

import "fmt"

// div is a ratio that reads 0, not NaN, when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd fills the untraced run's metrics: what a user of the grid
// sees.
func endToEnd(res *result, ms *measurement) {
	a := ms.a
	n := len(a.chunkMs)
	if p, ok := highestPercentile(n); ok {
		fmt.Printf("chunk commit latency: %d samples, p50 %.3f ms, p99 %.3f ms, highest percentile with >=10 samples beyond it p%g %.3f ms\n",
			n, quantile(a.chunkMs, 0.5), quantile(a.chunkMs, 0.99), p, quantile(a.chunkMs, p/100))
	}
	fmt.Printf("farm makespan: %d samples, p50 %.3f ms\n", len(a.farmMs), quantile(a.farmMs, 0.5))
	m := res.Metrics
	m["setup_s"] = metric{median(ms.setups), "s"}
	m["chunks_per_s"] = metric{median(ms.rates), "chunks/s"}
	m["farm_p50_ms"] = metric{quantile(a.farmMs, 0.5), "ms"}
	m["chunk_p99_ms"] = metric{quantile(a.chunkMs, 0.99), "ms"}
	m["egress_bytes_per_chunk"] = metric{div(ms.delta[cEgress], float64(a.committed)), "B/chunk"}
	m["peer_heap_kb"] = metric{ms.peerHeapKB, "KiB"}
	m["heap_live_mb"] = metric{median(ms.heapLiveMB), "MiB"}
}

// spanMetrics reduces the traced phase's spans to per-layer timings:
// the median duration of each probed call, and the self time per farm
// of each span that has children.
func spanMetrics(spans []span, farms int) map[string]metric {
	m := map[string]metric{}
	med := func(name string) float64 {
		d := durations(spans, name)
		if len(d) == 0 {
			return 0
		}
		return quantile(d, 0.5)
	}
	m["controller.candidates_us"] = metric{med("controller.ShardPeers"), "us"}
	m["service.despatch_us"] = metric{med("service.Despatch"), "us"}
	m["jxtaserve.pipe_us"] = metric{med("jxtaserve.pipe"), "us"}
	m["service.wait_remote_us"] = metric{med("service.WaitRemoteState"), "us"}
	m["jxtaserve.ping_us"] = metric{med("jxtaserve.ping"), "us"}
	m["chunkstore.fetch_super_us"] = metric{med("chunkstore.fetch_super"), "us"}
	m["chunkstore.fetch_controller_us"] = metric{med("chunkstore.fetch_controller"), "us"}
	m["overlay.publish_us"] = metric{med("overlay.Publish"), "us"}
	m["overlay.query_us"] = metric{med("overlay.Query"), "us"}
	m["overlay.push_ms"] = metric{med("overlay.push") / 1000, "ms"}
	m["types.marshal_us_per_chunk"] = metric{med("types.Marshal"), "us"}
	m["types.unmarshal_us_per_chunk"] = metric{med("types.Unmarshal"), "us"}
	m["health.rank_us"] = metric{med("health.Rank"), "us"}
	self := selfTimes(spans)
	for _, s := range []struct{ span, name string }{
		{"client.farm", "selftime.client_us_per_farm"},
		{"controller.RunFarm", "selftime.runfarm_tail_us_per_farm"},
		{"client.probes", "selftime.probe_gaps_us_per_farm"},
		{"overlay.push", "selftime.push_delivery_us_per_farm"},
	} {
		m[s.name] = metric{div(us(self[s.span]), float64(farms)), "us"}
	}
	m["trace.spans"] = metric{float64(len(spans)), "count"}
	return m
}

// perLayer fills the traced run's metrics. Counter-based ratios come
// from the untraced half a, so probe traffic does not inflate them;
// timings and samples come from the traced half b.
func perLayer(res *result, ms *measurement, runTimes []float64, quorum int, newHeapKB, retainedMB float64) {
	a, b, d, pr := ms.a, ms.b, ms.delta, ms.probes
	m := res.Metrics
	for k, v := range ms.spanM {
		m[k] = v
	}
	chunks := float64(a.committed)
	perChunk := func(x float64) float64 { return div(x, chunks) }

	m["controller.pool_events"] = metric{d[cPoolEvents], "count"}

	var busiest, total int64
	for _, n := range a.peerChunks {
		total += n
		if n > busiest {
			busiest = n
		}
	}
	m["service.busiest_donor_share"] = metric{div(float64(busiest), float64(total)), "ratio"}
	m["service.admission_inflight"] = metric{mean(b.inflightSamples), "count"}
	attempts := int64(d[cDespatches] + d[cDespatchFails])
	m["service.attempts_per_chunk"] = metric{perChunk(float64(attempts)), "1/chunk"}
	m["service.useful_ratio"] = metric{usefulRatio(a.committed, quorum, attempts), "ratio"}
	m["service.redespatches_per_chunk"] = metric{perChunk(float64(a.redespatches)), "1/chunk"}
	m["service.spec_launches_per_chunk"] = metric{perChunk(float64(a.specLaunches)), "1/chunk"}
	m["service.spec_wins_per_chunk"] = metric{perChunk(float64(a.specWins)), "1/chunk"}
	m["service.wasted_items_per_chunk"] = metric{perChunk(float64(a.wasted)), "1/chunk"}
	m["service.quorum_disagreements"] = metric{float64(a.disagreements), "count"}
	m["service.new_heap_kb"] = metric{newHeapKB, "KiB"}

	m["jxtaserve.msgs_per_chunk"] = metric{perChunk(d[cMsgs]), "1/chunk"}
	m["jxtaserve.bytes_per_chunk"] = metric{perChunk(d[cBytes]), "B/chunk"}

	m["chunkstore.fetch_ring_per_chunk"] = metric{perChunk(d[cFetchRing]), "1/chunk"}
	m["chunkstore.fetch_peer_per_chunk"] = metric{perChunk(d[cFetchPeer]), "1/chunk"}
	m["chunkstore.fetch_controller_per_chunk"] = metric{perChunk(d[cFetchController]), "1/chunk"}
	hits, misses := d[cHits], d[cMisses]
	m["chunkstore.hit_ratio"] = metric{div(hits, hits+misses), "ratio"}
	m["chunkstore.bytes_saved_per_chunk"] = metric{perChunk(d[cBytesSaved]), "B/chunk"}

	m["types.payload_bytes_per_chunk"] = metric{div(float64(pr.payload), float64(pr.chunks)), "B/chunk"}
	if len(runTimes) > 0 {
		m["engine.run_us_per_chunk"] = metric{quantile(runTimes, 0.5), "us"}
	} else {
		m["engine.run_us_per_chunk"] = metric{0, "us"}
	}
	m["health.breakers_open"] = metric{mean(b.breakerSample), "count"}

	m["runtime.alloc_bytes_per_chunk"] = metric{perChunk(d[cAllocBytes]), "B/chunk"}
	m["runtime.allocs_per_chunk"] = metric{perChunk(d[cAllocObjects]), "1/chunk"}
	m["runtime.gc_cpu_fraction"] = metric{div(d[cGCCPU], d[cTotalCPU]), "ratio"}
	m["runtime.heap_retained_after_close_mb"] = metric{retainedMB, "MiB"}
	m["runtime.goroutines_peak"] = metric{maxOf(b.goroutinePeak), "count"}

	untraced, traced := median(ms.rates), median(ms.tracedRates)
	m["trace.chunks_per_s_untraced"] = metric{untraced, "chunks/s"}
	m["trace.chunks_per_s_traced"] = metric{traced, "chunks/s"}
	m["trace.overhead_ratio"] = metric{div(untraced-traced, untraced), "ratio"}
	m["trace.probe_failures"] = metric{float64(pr.failures), "count"}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
