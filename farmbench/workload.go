package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"consumergrid/internal/engine"
	"consumergrid/internal/taskgraph"
	"consumergrid/internal/types"
	"consumergrid/internal/units"
	"consumergrid/internal/units/signal"
)

// workload is one set of farm inputs and grid conditions.
type workload struct {
	name    string
	simnet  bool
	chunks  int // chunks per farm
	spectra int // spectra per chunk
	bins    int // bins per spectrum
	quorum  int
	// speculate turns on straggler speculation (SpeculateAfter 30ms,
	// MaxSpeculative 2); churn adds link faults and the kill schedule.
	speculate bool
	churn     bool
}

// The workloads, and why each exists, are described in README.md.
var workloads = []workload{
	{name: "farm-small", chunks: 40, spectra: 2, bins: 16},
	{name: "farm-bulk-quorum", chunks: 10, spectra: 4, bins: 8192, quorum: 3},
	{name: "farm-churn", simnet: true, chunks: 20, spectra: 2, bins: 16, speculate: true, churn: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolChunks is how many distinct base chunks are generated before
// timing starts. Farms draw their chunks from this pool.
const poolChunks = 64

// inputs are a workload's generated base chunks.
type inputs struct {
	w    workload
	seed int64
	base [][][]float64 // [pool chunk][spectrum][bin]
}

func newInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{w: w, seed: seed, base: make([][][]float64, poolChunks)}
	for i := range in.base {
		in.base[i] = make([][]float64, w.spectra)
		for s := range in.base[i] {
			amps := make([]float64, w.bins)
			for j := range amps {
				amps[j] = rng.Float64()*100 + float64(j)
			}
			in.base[i][s] = amps
		}
	}
	return in
}

// farm builds the chunks of the farm with the given serial number. Each
// chunk shares the amplitudes of a seeded pool chunk, and every
// spectrum carries a resolution unique to the farm, so no two farms
// have a datum with the same digest: the chunk tier cannot serve one
// farm's inputs from another farm's cache entries.
func (in *inputs) farm(serial int64) [][]types.Data {
	res := 1 + float64(serial)*0x1p-24
	chunks := make([][]types.Data, in.w.chunks)
	for c := range chunks {
		idx := splitmix(uint64(in.seed)^uint64(serial)<<20^uint64(c)) % poolChunks
		chunk := make([]types.Data, in.w.spectra)
		for s := range chunk {
			chunk[s] = &types.Spectrum{Resolution: res, Amplitudes: in.base[idx][s]}
		}
		chunks[c] = chunk
	}
	return chunks
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newBody returns the farm body factory: one stateful AccumStat unit
// with one external input and one external output.
func newBody() (func() *taskgraph.Graph, error) {
	g := taskgraph.New("farmbench")
	task, err := units.NewTask("Accum", signal.NameAccumStat)
	if err != nil {
		return nil, err
	}
	g.MustAdd(task)
	g.ExternalIn = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	g.ExternalOut = []taskgraph.Endpoint{{Task: "Accum", Node: 0}}
	return func() *taskgraph.Graph { return g.Clone() }, nil
}

// outputDigest hashes a farm's outputs: the count, then each
// spectrum's resolution and amplitudes, as FNV-1a over 64-bit words.
func outputDigest(outs []types.Data) (uint64, error) {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(len(outs)))
	for i, d := range outs {
		s, ok := d.(*types.Spectrum)
		if !ok {
			return 0, fmt.Errorf("output %d is %T, not a spectrum", i, d)
		}
		mix(math.Float64bits(s.Resolution))
		mix(uint64(len(s.Amplitudes)))
		for _, v := range s.Amplitudes {
			mix(math.Float64bits(v))
		}
	}
	return h, nil
}

// reference runs the body over the farm's chunks serially in process,
// carrying each chunk's checkpoint into the next as the farm does, and
// returns the digest of the outputs and the time of each engine.Run.
func reference(body func() *taskgraph.Graph, chunks [][]types.Data) (uint64, []time.Duration, error) {
	var outs []types.Data
	var state map[string][]byte
	times := make([]time.Duration, 0, len(chunks))
	for c, chunk := range chunks {
		in := make(chan types.Data, len(chunk))
		for _, d := range chunk {
			in <- d
		}
		close(in)
		out := make(chan types.Data, len(chunk)+1)
		start := time.Now()
		res, err := engine.Run(context.Background(), body(), engine.Options{
			Iterations:   1,
			ExternalIn:   map[int]<-chan types.Data{0: in},
			ExternalOut:  map[int]chan<- types.Data{0: out},
			RestoreState: state,
		})
		times = append(times, time.Since(start))
		if err != nil {
			return 0, times, fmt.Errorf("reference chunk %d: %w", c, err)
		}
		for d := range out {
			outs = append(outs, d)
		}
		if len(res.State) > 0 {
			state = res.State
		}
	}
	h, err := outputDigest(outs)
	return h, times, err
}
