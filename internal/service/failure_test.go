package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"consumergrid/internal/gateway"
	"consumergrid/internal/jxtaserve"
	"consumergrid/internal/policy"
	"consumergrid/internal/simnet"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
)

// slowUnit blocks each Process call until released, letting tests freeze
// a remote job mid-run.
type slowUnit struct {
	release <-chan struct{}
}

var (
	slowOnce    sync.Once
	slowRelease chan struct{}
)

const slowUnitName = "test.failure.Slow"

func registerSlowUnit() {
	slowOnce.Do(func() {
		slowRelease = make(chan struct{})
		units.Register(units.Meta{
			Name:        slowUnitName,
			Description: "test unit that blocks until released or cancelled",
			In:          1, Out: 1,
			InTypes:  [][]string{{types.AnyType}},
			OutTypes: []string{types.AnyType},
		}, func() units.Unit { return &slowUnit{release: slowRelease} })
	})
}

func (s *slowUnit) Name() string            { return slowUnitName }
func (s *slowUnit) Init(units.Params) error { return nil }

func (s *slowUnit) Process(ctx *units.Context, in []types.Data) ([]types.Data, error) {
	select {
	case <-s.release:
	case <-ctx.Ctx.Done():
		return nil, ctx.Ctx.Err()
	}
	return []types.Data{in[0]}, nil
}

// TestWorkerDeathMidRunFailsFast is the churn failure injection: a donor
// peer vanishes while holding a distributed group. The controller must
// return an error promptly — never hang on a pipe that will never close
// (the DSL-disconnect case of §3.6.2).
func TestWorkerDeathMidRunFailsFast(t *testing.T) {
	registerSlowUnit()
	net := simnet.New()
	ctl := newService(t, net, "controller", Options{})
	worker := newService(t, net, "worker", Options{})

	// Wave -> [Slow] -> Grapher, the Slow group on the worker.
	g := figure1(t, policy.NameParallel)
	gt := g.Find("GroupTask")
	gt.Group.Find("Gaussian").Unit = slowUnitName // block inside the group
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"worker"}}
	peers := map[string]PeerRef{"worker": {ID: "worker", Addr: worker.Addr()}}

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
			DistOptions{Iterations: 4, Seed: 1})
		done <- outcome{err}
	}()

	// Let the despatch land and the first datum reach the blocked unit,
	// then kill the worker and sever its links.
	time.Sleep(100 * time.Millisecond)
	workerAddr := worker.Addr()
	worker.Close()
	net.Cut(workerAddr)

	select {
	case out := <-done:
		if out.err == nil {
			t.Fatal("controller reported success despite worker death")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("controller hung after worker death")
	}
}

// TestCancelRemoteStopsBlockedJob verifies the cancellation path: a
// despatched job stuck in a unit is cancelled via the control channel and
// reports a canceled state.
func TestCancelRemoteStopsBlockedJob(t *testing.T) {
	registerSlowUnit()
	tr := newInProc(t)
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "worker", Options{})

	body := buildSlowBody(t)
	pipe, _, err := ctl.Host().OpenInput("sink-cancel", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	job, err := ctl.Despatch(RemotePart{
		Peer:       PeerRef{ID: "worker", Addr: worker.Addr()},
		Body:       body,
		InLabels:   []string{"in-cancel"},
		OutTargets: []PipeTarget{{Label: "sink-cancel", Addr: ctl.Addr()}},
		Iterations: 1,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Feed one datum so the slow unit is genuinely mid-Process.
	out, err := ctl.Host().BindOutput(job.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Send(&types.Const{Value: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	if err := ctl.CancelRemote(job); err != nil {
		t.Fatal(err)
	}
	// Wait must surface the cancellation as an error.
	waitDone := make(chan error, 1)
	go func() {
		_, err := ctl.WaitRemote(job)
		waitDone <- err
	}()
	select {
	case err := <-waitDone:
		if err == nil {
			t.Fatal("cancelled job reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("WaitRemote hung after cancel")
	}
	out.Close()
}

// TestCancelPendingJobReleasesPipes: a job cancelled while it waits in
// its donor's resource-manager queue never runs, so the cancel must
// release the pipes its run request bound. Otherwise the job's output
// pipe holds its connection to the controller open: the controller's
// input never sees end-of-stream and the controller's Close waits on
// that connection forever. Farms hit this when an attempt is abandoned
// right after despatch.
func TestCancelPendingJobReleasesPipes(t *testing.T) {
	tr := newInProc(t)
	ctl := newService(t, tr, "pend-ctl", Options{})
	rm, err := gateway.NewBatch(1)
	if err != nil {
		t.Fatal(err)
	}
	w := newService(t, tr, "pend-w1", Options{RM: rm})
	t.Cleanup(func() { rm.Close() }) // runs before w closes
	despatch := func(label string) (*RemoteJob, *jxtaserve.InputPipe) {
		t.Helper()
		pipe, _, err := ctl.Host().OpenInput(label, 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pipe.Close)
		pipe.ExpectEOFs(1)
		job, err := ctl.Despatch(RemotePart{
			Peer:       PeerRef{ID: "pend-w1", Addr: w.Addr()},
			Body:       accumBody(t),
			InLabels:   []string{label + "-in"},
			OutTargets: []PipeTarget{{Label: label, Addr: ctl.Addr()}},
			Iterations: 1,
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		return job, pipe
	}
	// The first job takes the only slot and waits for input that never
	// comes; the second queues behind it.
	despatch("pend-busy")
	queued, queuedPipe := despatch("pend-queued")
	if st := rm.QueueLength(); st != 1 {
		t.Fatalf("batch queue holds %d jobs, want the second job pending", st)
	}
	if err := ctl.CancelRemote(queued); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-queuedPipe.C:
			if !ok {
				return // the cancelled job's output pipe closed
			}
		case <-deadline:
			t.Fatal("a job cancelled while pending kept its output pipe open")
		}
	}
}

// TestDespatchToCutLinkFails exercises dial-time failure: the target peer
// is unreachable (link severed before despatch).
func TestDespatchToCutLinkFails(t *testing.T) {
	registerSlowUnit()
	net := simnet.New()
	ctl := newService(t, net, "controller", Options{})
	worker := newService(t, net, "worker", Options{})
	net.Cut(worker.Addr())

	body := buildSlowBody(t)
	_, err := ctl.Despatch(RemotePart{
		Peer:       PeerRef{ID: "worker", Addr: worker.Addr()},
		Body:       body,
		InLabels:   []string{"in-cut"},
		OutTargets: []PipeTarget{{Label: "sink-cut", Addr: ctl.Addr()}},
		Iterations: 1,
	}, "")
	if err == nil {
		t.Fatal("despatch over cut link succeeded")
	}
}

// buildSlowBody is a one-task group body around the blocking unit.
func buildSlowBody(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New("slowbody")
	g.MustAdd(&taskgraph.Task{Name: "Slow", Unit: slowUnitName, In: 1, Out: 1})
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Slow", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Slow", Node: 0}}
	return g
}

// newInProc gives the cancel test a fresh in-process transport.
func newInProc(t *testing.T) jxtaserve.Transport {
	t.Helper()
	return jxtaserve.NewInProc()
}

// TestIdleGateRefusesWork is the §3.7 screensaver model: a donor whose
// owner is active refuses new jobs until idle again.
func TestIdleGateRefusesWork(t *testing.T) {
	registerSlowUnit()
	tr := newInProc(t)
	ctl := newService(t, tr, "controller", Options{})
	worker := newService(t, tr, "worker", Options{})

	if !worker.Available() {
		t.Fatal("fresh worker should be available")
	}
	worker.SetAvailable(false)
	body := buildSlowBody(t)
	pipe, _, err := ctl.Host().OpenInput("idle-sink", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pipe.Close()
	part := RemotePart{
		Peer:       PeerRef{ID: "worker", Addr: worker.Addr()},
		Body:       body,
		InLabels:   []string{"idle-in"},
		OutTargets: []PipeTarget{{Label: "idle-sink", Addr: ctl.Addr()}},
		Iterations: 1,
	}
	if _, err := ctl.Despatch(part, ""); err == nil {
		t.Fatal("busy worker accepted work")
	}
	// The screensaver comes on; work flows again.
	worker.SetAvailable(true)
	job, err := ctl.Despatch(part, "")
	if err != nil {
		t.Fatalf("idle worker refused work: %v", err)
	}
	out, err := ctl.Host().BindOutput(job.InAds[0])
	if err != nil {
		t.Fatal(err)
	}
	out.Close() // immediate EOF: zero data, job drains cleanly
	if _, err := ctl.WaitRemote(job); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// TestParallelFailoverSkipsDeadReplica: one of two planned replicas is
// offline at despatch time; the farm proceeds on the survivor and every
// data item is still processed (§3.6.2's "as many computers that are
// available").
func TestParallelFailoverSkipsDeadReplica(t *testing.T) {
	tr := newInProc(t)
	ctl := newService(t, tr, "controller", Options{})
	live := newService(t, tr, "live", Options{})
	dead := newService(t, tr, "dead", Options{})
	deadAddr := dead.Addr()
	dead.Close()

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"dead", "live"}}
	peers := map[string]PeerRef{
		"live": {ID: "live", Addr: live.Addr()},
		"dead": {ID: "dead", Addr: deadAddr},
	}
	const iters = 6
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: iters, Seed: 1})
	if err != nil {
		t.Fatalf("failover run failed: %v", err)
	}
	if res.Remote["live"]["Gaussian"] != iters {
		t.Errorf("survivor processed %d of %d", res.Remote["live"]["Gaussian"], iters)
	}
	if _, ok := res.Remote["dead"]; ok {
		t.Error("dead replica reported work")
	}
}

// TestParallelBusyReplicaSkipped: an idle-gated (owner-active) replica is
// skipped the same way a dead one is.
func TestParallelBusyReplicaSkipped(t *testing.T) {
	tr := newInProc(t)
	ctl := newService(t, tr, "controller", Options{})
	live := newService(t, tr, "live", Options{})
	busy := newService(t, tr, "busy", Options{})
	busy.SetAvailable(false)

	g := figure1(t, policy.NameParallel)
	plan := &policy.Plan{Kind: policy.KindParallel, Replicas: []string{"busy", "live"}}
	peers := map[string]PeerRef{
		"live": {ID: "live", Addr: live.Addr()},
		"busy": {ID: "busy", Addr: busy.Addr()},
	}
	res, err := ctl.RunDistributed(context.Background(), g, "GroupTask", plan, peers,
		DistOptions{Iterations: 4, Seed: 1})
	if err != nil {
		t.Fatalf("run with busy replica failed: %v", err)
	}
	if res.Remote["live"]["Gaussian"] != 4 {
		t.Errorf("survivor work = %v", res.Remote)
	}
	// All replicas refusing is a hard error.
	live.SetAvailable(false)
	if _, err := ctl.RunDistributed(context.Background(), figure1(t, policy.NameParallel),
		"GroupTask", plan, peers, DistOptions{Iterations: 2, Seed: 2}); err == nil {
		t.Error("run with zero available replicas succeeded")
	}
}
