package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crn"
	"crn/internal/sweepfile"
)

// Workload names, as passed to --workload.
const (
	wDiscovery = "discovery-static"
	wBroadcast = "broadcast-dynamic"
	wService   = "service-sweep"
)

var workloadNames = []string{wDiscovery, wBroadcast, wService}

// Sizes of the workloads. A sweep workload's step runs every variant
// at its seed count, as crn.Sweep calls of partSeeds seeds each; the
// service workload's step submits every spec of its pool once. Each
// step holds at least 100 distinct ops, so that the p90 of their
// latencies has ten samples beyond it, and is short enough (2–3 s per
// sweep step, about 7 s per service step, on two CPUs) to repeat
// several times in a run: each op's latency is its fastest repeat.
// A sweep of partSeeds runs, one per worker, takes 10–70 ms: a sweep
// is timed as a whole, and the shorter it is, the likelier some repeat
// of it runs while the host is fast on both CPUs at once.
const (
	instances         = 2  // graphs per variant kind
	sweepSeeds        = 20 // 6 variants × 20 = 120 runs per step
	partSeeds         = 2  // runs per crn.Sweep call: one per worker
	servicePool       = 100
	serviceShards     = 4
	channelsPerNode   = 4
	sharedPerNeighbor = 2
	broadcastSource   = 0
	broadcastMessage  = "benchmark"
)

// graphPool seeds the sweep workloads' topologies and channel
// assignments. The graphs are part of a workload's definition, like
// the seeds of a committed sweep spec: their degree and diameter set
// most of a run's cost, so drawing them from --seed would make a
// workload's cost differ more between seeds than any change to the
// code. --seed draws everything else: per-run protocol seeds, primary
// traffic and churn and mobility trajectories.
const graphPool = 0x5EED

// The urban-busy preset's Markov primary traffic (~25% occupancy),
// with its trajectory drawn from the workload seed.
const (
	urbanBusyPBusy = 0.05
	urbanBusyPFree = 0.15
)

// mix is splitmix64: the benchmark derives every input seed from the
// workload seed with it, independently of the program under test.
func mix(seed, key uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(key+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// variantDesc is one scenario of a workload: its generator parameters
// (which the radio probe replays to rebuild the graph and channel
// assignment) and the spectrum or dynamics options stacked on top.
type variantDesc struct {
	Name     string
	Kind     string // the variant family; instances of a kind differ only in seeds
	Topology crn.Topology
	N, C, K  int
	Seed     uint64
	Extra    []crn.ScenarioOption
}

func (v variantDesc) options() []crn.ScenarioOption {
	opts := []crn.ScenarioOption{
		crn.WithTopology(v.Topology),
		crn.WithNodes(v.N),
		crn.WithChannels(v.C, v.K, 0),
		crn.WithSeed(v.Seed),
	}
	return append(opts, v.Extra...)
}

func presetOptions(name string) []crn.ScenarioOption {
	p, err := crn.PresetByName(name)
	if err != nil {
		panic(err) // the benchmark names only built-in presets
	}
	return p.Options
}

// discoveryVariants: CSEEK over static topologies under urban-busy
// Markov primary traffic: a small dense graph, a long low-degree chain
// and a higher-degree unit-disk graph.
func discoveryVariants(seed uint64) []variantDesc {
	var out []variantDesc
	for i := 0; i < instances; i++ {
		for k, kind := range []struct {
			name string
			topo crn.Topology
			n    int
		}{{"gnp16", crn.GNP, 16}, {"chain32", crn.Chain, 32}, {"unitdisk32", crn.UnitDisk, 32}} {
			key := uint64(100 + 10*i + k)
			out = append(out, variantDesc{
				Name: fmt.Sprintf("%s-%d", kind.name, i), Kind: kind.name,
				Topology: kind.topo, N: kind.n, C: channelsPerNode, K: sharedPerNeighbor,
				Seed:  mix(graphPool, key),
				Extra: []crn.ScenarioOption{crn.WithMarkovPrimaryUsers(urbanBusyPBusy, urbanBusyPFree, 0, mix(seed, key))},
			})
		}
	}
	return out
}

// broadcastVariants: CGCAST on static unit-disk graphs, on their twins
// under node churn and random-waypoint mobility (the same graphs, so
// each pair isolates the cost of dynamics), and on chains under the
// t-bounded adversary.
func broadcastVariants(seed uint64) []variantDesc {
	var out []variantDesc
	for i := 0; i < instances; i++ {
		key := uint64(200 + 10*i)
		static := variantDesc{
			Name: fmt.Sprintf("unitdisk32-%d", i), Kind: "unitdisk32",
			Topology: crn.UnitDisk, N: 32, C: channelsPerNode, K: sharedPerNeighbor,
			Seed: mix(graphPool, key),
		}
		mobile := static
		mobile.Name, mobile.Kind = fmt.Sprintf("unitdisk32-mobile-%d", i), "unitdisk32-mobile"
		mobile.Extra = []crn.ScenarioOption{
			crn.WithChurn(0.01, 0.08, mix(seed, key+1)),
			crn.WithMobility(0.004, 4, mix(seed, key+2)),
		}
		chain := variantDesc{
			Name: fmt.Sprintf("chain64-adversarial-%d", i), Kind: "chain64-adversarial",
			Topology: crn.Chain, N: 64, C: channelsPerNode, K: sharedPerNeighbor,
			Seed:  mix(graphPool, key+3),
			Extra: presetOptions(crn.PresetAdversarial),
		}
		out = append(out, static, mobile, chain)
	}
	return out
}

// serviceSpec is the service workload's sweep: the shape of the
// committed crnsweep example spec (CSEEK on a quiet path and a busy
// star), with every seed drawn from the workload seed. Specs of the
// pool differ only in the sweep's base seed.
func serviceSpec(seed uint64, pool int) *sweepfile.Spec {
	return &sweepfile.Spec{
		Primitive: "cseek",
		Seeds:     4,
		BaseSeed:  mix(seed, uint64(1000+pool)),
		Variants: []sweepfile.Variant{
			{Name: "quiet-path", Topology: "path", N: 6, Channels: 3, K: 2, Seed: mix(seed, 301)},
			{Name: "busy-star", Topology: "star", N: 8, Channels: 4, K: 2, Seed: mix(seed, 302), Preset: crn.PresetUrbanBusy},
		},
	}
}

// specVariants describes a sweep file's variants for the probes.
func specVariants(sf *sweepfile.Spec) []variantDesc {
	out := make([]variantDesc, len(sf.Variants))
	for i, v := range sf.Variants {
		out[i] = variantDesc{
			Name: v.Name, Kind: v.Name, Topology: crn.Topology(v.Topology),
			N: v.N, C: v.Channels, K: v.K, Seed: v.Seed,
		}
	}
	return out
}

// firstOfKind keeps the first variant of every kind.
func firstOfKind(vs []variantDesc) []int {
	seen := make(map[string]bool)
	var idx []int
	for i, v := range vs {
		if !seen[v.Kind] {
			seen[v.Kind] = true
			idx = append(idx, i)
		}
	}
	return idx
}

// buildAll builds every variant with crn.New, recording one
// scenario.build span per scenario.
func buildAll(vs []variantDesc, rec *Recorder) ([]*crn.Scenario, time.Duration, error) {
	out := make([]*crn.Scenario, len(vs))
	t0 := time.Now()
	for i, v := range vs {
		sp := rec.Begin("scenario.build", 0, 0)
		s, err := crn.New(v.options()...)
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("building %s: %w", v.Name, err)
		}
		out[i] = s
	}
	return out, time.Since(t0), nil
}

// timedPrimitive wraps the primitive handed to crn.Sweep so every run
// is timed and, while the recorder records, spanned under its sweep.
// It exposes only Name and Run, as every production caller's
// primitive does through crn.Sweep.
type timedPrimitive struct {
	crn.Primitive
	rec   *Recorder
	names map[*crn.Scenario]string // variant name, for op keys
	kinds map[*crn.Scenario]string // variant kind, for span names
	ops   *atomic.Int64

	mu      sync.Mutex
	samples []opSample
}

func (p *timedPrimitive) Run(ctx context.Context, s *crn.Scenario, seed uint64) (*crn.Result, error) {
	parent, _ := spanFrom(ctx)
	name := "run"
	if kind := p.kinds[s]; kind != "" {
		name += "." + kind
	}
	sp := p.rec.Begin(name, parent, p.ops.Add(1))
	t0 := time.Now()
	res, err := p.Primitive.Run(ctx, s, seed)
	d := time.Since(t0)
	sp.End()
	p.mu.Lock()
	p.samples = append(p.samples, opSample{key: p.names[s] + "#" + strconv.FormatUint(seed, 10), ms: msOf(d)})
	p.mu.Unlock()
	return res, err
}

// take returns and clears the runs timed so far.
func (p *timedPrimitive) take() []opSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.samples
	p.samples = nil
	return s
}

// aggregateDigest fingerprints a sweep's canonical aggregate JSON.
func aggregateDigest(res *crn.SweepResult) (string, error) {
	doc, err := json.Marshal(res.Aggregates)
	if err != nil {
		return "", err
	}
	return bytesDigest(doc), nil
}

// bytesDigest fingerprints a byte string.
func bytesDigest(doc []byte) string { return fmt.Sprintf("sha256:%x", sha256.Sum256(doc)) }

// nproc is the compute cap: sweeps run this many workers and the
// service this many pull workers.
func nproc() int { return runtime.NumCPU() }

// msOf is d in milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
