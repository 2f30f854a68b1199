# Convenience targets for the consumergrid repo. The go toolchain is the
# only dependency; everything routes through `go test`/`go run`.

GOFLAGS ?=

.PHONY: build test race bench bench-smoke metrics-smoke overlay-smoke wire-conformance datastore-smoke tenant-smoke drain-smoke groups-smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./internal/engine/... ./internal/jxtaserve/... ./internal/dsp/...

# Full benchmark snapshot: runs the whole suite and writes BENCH_<date>.json,
# comparing against the previous snapshot.
bench:
	go run ./tools/benchreg -benchtime 300ms

# Short CI smoke: only the kernel + codec + fan-out hot paths, gated at a
# 25% ns/op regression against the committed snapshot.
bench-smoke:
	go run ./tools/benchreg \
		-bench 'BenchmarkKernel|BenchmarkCodec|BenchmarkEngineFanOut' \
		-gate 'BenchmarkKernelFFT|BenchmarkCodec' \
		-benchtime 100ms -threshold 0.25 -no-save

# Wire-protocol conformance: golden frames for both codecs, a short
# fuzz pass over the binary decoder and both round-trip targets, the
# full dialler×listener interop matrix, and the mux invariants (FIFO,
# credit bounds, reset isolation, goroutine leaks) under the race
# detector. Run with -update after a deliberate wire change to
# regenerate the golden fixtures.
wire-conformance:
	go test ./internal/jxtaserve/ -run 'TestGolden|TestInterop|TestReadBinaryMessageRejects' -count=1
	go test ./internal/jxtaserve/ -run '^$$' -fuzz FuzzReadBinaryMessage -fuzztime 10s
	go test ./internal/jxtaserve/ -run '^$$' -fuzz FuzzBinaryMessageRoundTrip -fuzztime 10s
	go test -race ./internal/jxtaserve/ ./internal/simnet/ -run 'TestMux' -count=1

# Observability smoke: boot a real daemon, scrape /metrics, and assert
# the core series families are listed (they register eagerly, so a
# fresh daemon must already expose them). Fails if the daemon dies, the
# scrape fails, or any series family is missing.
metrics-smoke:
	./tools/metrics_smoke.sh

# Content-addressed data tier: the chunkstore/manifest unit and fuzz
# suites, ring chunk placement, and the end-to-end farm battery —
# manifest despatch, the >= 50% controller-egress reduction under
# quorum, the legacy streaming fallback, the peer fetch rung, and the
# dead-replica chaos case. Then a short run of the egress benchmark
# pair so the streaming-vs-manifest byte counts stay visible in CI logs.
datastore-smoke:
	go test ./internal/chunkstore/ ./internal/overlay/ -run 'TestChunk|TestManifest|FuzzChunk' -count=1
	go test ./internal/service/ -run 'TestFarmManifestDespatch|TestFarmEgressReduction|TestFarmLegacyPeerStreamsPayloads|TestResolveManifestPeerRung|TestFarmSurvivesDeadChunkReplica' -count=1 -v
	go test -run '^$$' -bench 'BenchmarkFarmEgress' -benchtime 5x .

# Multi-tenant despatch plane: the 2-shard × 3-tenant smoke scenario
# (concurrent equal-weight farms over a pooled simnet grid, asserting
# Jain's fairness index >= 0.9 on admission grants and the presence of
# tenant-labelled metric families), the fair-share scheduler's own
# regression battery under -race (FIFO wake order, weighted shares,
# outcome exactness racing Close), the N-tenants × M-farms byzantine
# contention suite, the daemon flag-validation table, and the T7
# fairness experiment end to end.
tenant-smoke:
	go test ./internal/controller/ -run 'TestTenantSmoke|TestDonorPoolShard|TestDonorPoolDefaultShards' -count=1 -v
	go test -race ./internal/service/ -run 'TestAdmission|TestTenant' -count=1
	go test ./cmd/trianad/ ./internal/policy/ -run 'TestValidate|TestParseTenants|TestJain|TestWeightedJain' -count=1
	go test ./internal/experiments/ -run 'TestEveryExperimentRunsAndHoldsShape/T7' -count=1

# Graceful-lifecycle battery under the race detector: the lifecycle
# runner/supervisor and crash-safe snapshot unit suites, a drain under
# live 4-tenant farm load (zero in-flight failures, ErrDraining for
# late farms, adverts retracted, super-peer handoff), crash-restart
# resume from the -state-dir checkpoint with byte-identical outputs,
# wire-level method quiescing, 50 Start->Drain->Stop cycles without a
# goroutine leak, and the /healthz / /readyz probe flip.
drain-smoke:
	go test -race ./internal/lifecycle/ -count=1
	go test -race ./internal/service/ -run 'TestAdmissionDrainGatesFarmsNotSlots|TestDrainUnderTenantLoad|TestDrainRPCReportsProgress|TestCheckpointRestoreRoundTrip|TestRestartRecoveryResumesCheckpointedFarm|TestLifecycleCyclesDoNotLeakGoroutines' -count=1 -v
	go test -race ./internal/jxtaserve/ -run 'TestQuiesce' -count=1
	go test -race ./internal/webstatus/ -run 'TestProbesFlipOnDrain' -count=1

# Capability identity groups: the capgroup canonicalisation / advert /
# index unit suite, the mixed-ring controller acceptance battery (group
# despatch, single-group quorum electorates, counted whole-pool
# fallback, poolless pull resolution), the group-committed farm and
# ErrNoQuorumCapacity regressions, the group-shard overlay resilience
# trio (super kill, anti-entropy repair, bounded ring remap), and the
# -caps / -require-caps flag-validation table.
groups-smoke:
	go test ./internal/capgroup/ -count=1
	go test ./internal/controller/ -run 'TestGroup' -count=1 -v
	go test ./internal/service/ -run 'TestGroup' -count=1
	go test ./internal/overlay/ -run 'TestGroup' -count=1
	go test ./cmd/trianad/ -run 'TestValidate|TestParseCaps' -count=1

# Discovery-overlay chaos: seeded simnet with 3 super-peers (R=2), one
# killed mid-run. Asserts every advert published before the kill stays
# discoverable, failover pushes reach subscribers, and anti-entropy
# repairs a healed partition. Deterministic seeds.
overlay-smoke:
	go test ./internal/overlay/ -run 'TestChaosSuperPeerFailover|TestAntiEntropyRepairsPartition|TestPublishAndQueryMessageCost' -count=1 -v
