package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"crn"
	"crn/internal/chanassign"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
	"crn/internal/sweepfile"
)

// Probe sizes. Each probe times calls into one layer's public
// functions, sequentially, on the workload's own inputs.
const (
	kernelNodeSlots = 1 << 22 // node-slots per radio kernel probe run
	kernelReps      = 3
	probeSeeds      = 2 // runs per variant kind for the CSEEK and CGCAST probes
	dynamicsSeeds   = 3
	shardReps       = 5
	serviceJobs     = 20
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's reported figures by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// timed runs fn inside a span named name and returns its duration in
// milliseconds.
func timed(rec *Recorder, name string, fn func() error) (float64, error) {
	sp := rec.Begin(name, 0, 0)
	t0 := time.Now()
	err := fn()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	sp.End()
	return ms, err
}

// probeLayers runs every layer probe and records the per-layer
// metrics. variants[i] describes scenarios[i].
func probeLayers(ctx context.Context, rec *Recorder, m metricSet, variants []variantDesc, scenarios []*crn.Scenario, seed uint64, dir string) error {
	m.set("scenario.build_ms", mean(rec.DurationsMs("scenario.build")), "ms")
	kinds := firstOfKind(variants)
	if err := probeKernel(rec, m, variants, scenarios, kinds); err != nil {
		return fmt.Errorf("radio probe: %w", err)
	}
	if err := probeCSeek(ctx, rec, m, scenarios, kinds, seed); err != nil {
		return fmt.Errorf("cseek probe: %w", err)
	}
	if err := probeCGCast(ctx, rec, m, scenarios, kinds, seed); err != nil {
		return fmt.Errorf("cgcast probe: %w", err)
	}
	if err := probeDynamics(ctx, rec, m, seed); err != nil {
		return fmt.Errorf("dynamics probe: %w", err)
	}
	sf := serviceSpec(seed, 0)
	if err := probeShards(ctx, rec, m, sf); err != nil {
		return fmt.Errorf("shard probe: %w", err)
	}
	if err := probeService(ctx, rec, m, sf, dir); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	return nil
}

// replay rebuilds a variant's graph and channel assignment with the
// generators crn.New uses, then checks them against the scenario
// crn.New built, so the kernel probe runs on the variant's own inputs.
func replay(v variantDesc, s *crn.Scenario) (*graph.Graph, *chanassign.Assignment, error) {
	r := rng.New(v.Seed)
	var (
		g   *graph.Graph
		err error
	)
	switch v.Topology {
	case crn.GNP:
		g, err = graph.GNP(v.N, 0.3, r)
	case crn.Chain:
		g, err = graph.ClusterChain(v.N/4, 4)
	case crn.UnitDisk:
		g, _, err = graph.UnitDiskGeometry(v.N, 0.35, r)
	case crn.Path:
		g = graph.Path(v.N)
	case crn.Star:
		g = graph.Star(v.N)
	default:
		return nil, nil, fmt.Errorf("no replay for topology %q", v.Topology)
	}
	if err != nil {
		return nil, nil, err
	}
	a, err := chanassign.SharedCore(v.N, v.C, v.K, r)
	if err != nil {
		return nil, nil, err
	}
	edges := s.Edges()
	if len(edges) != g.M() || a.Universe != s.Universe() {
		return nil, nil, fmt.Errorf("%s: replayed network differs from crn.New's", v.Name)
	}
	for _, e := range edges {
		if !g.HasEdge(e[0], e[1]) || a.SharedCount(e[0], e[1]) != s.SharedChannelCount(e[0], e[1]) {
			return nil, nil, fmt.Errorf("%s: replayed network differs from crn.New's at edge %v", v.Name, e)
		}
	}
	return g, a, nil
}

// scriptBank is a scripted range-ABI protocol: each node's role and
// channel rotate arithmetically with (node, slot), so protocol cost is
// a few ALU operations per node-slot and the probe times the slot
// kernel. It never finishes.
type scriptBank struct {
	c      int
	slots  []int64
	frames []any
}

func (b *scriptBank) act(u int) radio.Action {
	s := int(b.slots[u])
	b.slots[u]++
	switch (u + s) & 3 {
	case 0:
		return radio.Action{Kind: radio.Broadcast, Ch: s % b.c, Data: b.frames[u]}
	case 1, 2:
		return radio.Action{Kind: radio.Listen, Ch: (u + s) % b.c}
	default:
		return radio.Action{Kind: radio.Idle}
	}
}

func (b *scriptBank) ActRange(_ int64, lo, hi int, acts []radio.Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.act(u)
	}
}

func (b *scriptBank) ObserveRange(int64, int, int, []radio.Delivery) {}

// scriptNode is one node's view of the bank.
type scriptNode struct {
	id   int
	bank *scriptBank
}

func (p *scriptNode) Act(int64) radio.Action                { return p.bank.act(p.id) }
func (p *scriptNode) Observe(int64, *radio.Message)         {}
func (p *scriptNode) Done() bool                            { return false }
func (p *scriptNode) MinDoneSlots() int64                   { return 1 << 62 }
func (p *scriptNode) RangeBank() (radio.RangeProtocol, int) { return p.bank, p.id }

func scriptProtocols(n, c int) []radio.Protocol {
	bank := &scriptBank{c: c, slots: make([]int64, n), frames: make([]any, n)}
	protos := make([]radio.Protocol, n)
	for i := range protos {
		bank.frames[i] = i
		protos[i] = &scriptNode{id: i, bank: bank}
	}
	return protos
}

// probeKernel times radio.NewEngine + Engine.Run of the scripted bank
// on each variant kind's graph and assignment.
func probeKernel(rec *Recorder, m metricSet, variants []variantDesc, scenarios []*crn.Scenario, kinds []int) error {
	type input struct {
		nw    *radio.Network
		n, c  int
		slots int64
	}
	var inputs []input
	for _, i := range kinds {
		g, a, err := replay(variants[i], scenarios[i])
		if err != nil {
			return err
		}
		n := g.N()
		inputs = append(inputs, input{&radio.Network{Graph: g, Assign: a}, n, a.C, int64(kernelNodeSlots / n)})
	}
	var rates []float64
	for rep := 0; rep < kernelReps; rep++ {
		var nodeSlots, ms float64
		for _, in := range inputs {
			var st radio.Stats
			d, err := timed(rec, "radio.engine", func() error {
				e, err := radio.NewEngine(in.nw, scriptProtocols(in.n, in.c))
				if err != nil {
					return err
				}
				if !e.RangeDispatch() {
					return fmt.Errorf("scripted bank not range-dispatched")
				}
				st = e.Run(in.slots)
				return nil
			})
			if err != nil {
				return err
			}
			ms += d
			nodeSlots += float64(in.n) * float64(st.Slots)
		}
		rates = append(rates, nodeSlots/ms*1e3)
	}
	rate := median(rates)
	m.set("radio.kernel_node_slots_per_s", rate, "1/s")
	m.set("radio.kernel_ns_per_node_slot", 1e9/rate, "ns")
	return nil
}

// executedSlots is how many slots a discovery run simulated: it stops
// at the slot its goal held, else runs its whole schedule.
func executedSlots(res *crn.Result) int64 {
	if res.Completed {
		return res.CompletedAtSlot
	}
	return res.ScheduleSlots
}

// probeCSeek times single CSEEK runs: run time ÷ (n × executed slots).
func probeCSeek(ctx context.Context, rec *Recorder, m metricSet, scenarios []*crn.Scenario, kinds []int, seed uint64) error {
	prim := crn.Discovery(crn.CSeek)
	var ms, nodeSlots float64
	for _, i := range kinds {
		s := scenarios[i]
		for k := 0; k < probeSeeds; k++ {
			var res *crn.Result
			d, err := timed(rec, "cseek.run", func() (err error) {
				res, err = prim.Run(ctx, s, mix(seed, uint64(400+k)))
				return err
			})
			if err != nil {
				return err
			}
			ms += d
			nodeSlots += float64(s.N()) * float64(executedSlots(res))
		}
	}
	m.set("cseek.ns_per_node_slot", ms*1e6/nodeSlots, "ns")
	return nil
}

// sessionRun is one CGCAST run through the session API.
type sessionRun struct {
	setupMs, dissemMs float64
	setupAllocs       uint64
	setupSlots        int64
	dissem            *crn.SessionBroadcastResult
}

// runSession runs CGCAST's setup at seed and one dissemination at
// seed+1 — the seeds GlobalBroadcast uses — spanning both.
func runSession(ctx context.Context, rec *Recorder, s *crn.Scenario, seed uint64) (*sessionRun, error) {
	var (
		sr            sessionRun
		bs            *crn.BroadcastSession
		before, after runtime.MemStats
		err           error
	)
	runtime.ReadMemStats(&before)
	sr.setupMs, err = timed(rec, "cgcast.setup", func() (err error) {
		bs, err = s.NewBroadcastSessionCtx(ctx, seed)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	sr.dissemMs, err = timed(rec, "cgcast.dissem", func() (err error) {
		sr.dissem, err = bs.BroadcastCtx(ctx, broadcastSource, broadcastMessage, seed+1)
		return err
	})
	if err != nil {
		return nil, err
	}
	sr.setupAllocs = after.Mallocs - before.Mallocs
	sr.setupSlots = bs.SetupSlots()
	return &sr, nil
}

// checkSession verifies that a session-API run reports the setup and
// dissemination slots GlobalBroadcast.Run reports at the same seed.
func checkSession(ctx context.Context, s *crn.Scenario, seed uint64, sr *sessionRun) error {
	res, err := crn.GlobalBroadcast(broadcastSource, broadcastMessage).Run(ctx, s, seed)
	if err != nil {
		return err
	}
	b := res.Broadcast
	if b.SetupSlots != sr.setupSlots || b.DissemScheduleSlots != sr.dissem.ScheduleSlots ||
		res.CompletedAtSlot != sr.dissem.AllInformedAtSlot || b.AllInformed != sr.dissem.AllInformed {
		return fmt.Errorf("session run (setup %d, dissemination %d, informed at %d) differs from GlobalBroadcast.Run (setup %d, dissemination %d, informed at %d)",
			sr.setupSlots, sr.dissem.ScheduleSlots, sr.dissem.AllInformedAtSlot,
			b.SetupSlots, b.DissemScheduleSlots, res.CompletedAtSlot)
	}
	return nil
}

// probeCGCast splits CGCAST into setup and dissemination through the
// session API, and checks each run against GlobalBroadcast.Run.
func probeCGCast(ctx context.Context, rec *Recorder, m metricSet, scenarios []*crn.Scenario, kinds []int, seed uint64) error {
	var setupMs, dissemMs, allocs []float64
	for _, i := range kinds {
		for k := 0; k < probeSeeds; k++ {
			runSeed := mix(seed, uint64(500+k))
			sr, err := runSession(ctx, rec, scenarios[i], runSeed)
			if err != nil {
				return err
			}
			if err := checkSession(ctx, scenarios[i], runSeed, sr); err != nil {
				return err
			}
			setupMs = append(setupMs, sr.setupMs)
			dissemMs = append(dissemMs, sr.dissemMs)
			allocs = append(allocs, float64(sr.setupAllocs))
		}
	}
	m.set("cgcast.setup_ms", median(setupMs), "ms")
	m.set("cgcast.setup_allocs", median(allocs), "count")
	m.set("cgcast.dissem_ms", median(dissemMs), "ms")
	return nil
}

// probeDynamics compares dissemination on the broadcast workload's
// mobile unit-disk variant with its static twin.
func probeDynamics(ctx context.Context, rec *Recorder, m metricSet, seed uint64) error {
	vs := broadcastVariants(seed)
	var static, mobile []float64
	for _, pair := range []struct {
		v   variantDesc
		out *[]float64
	}{{vs[0], &static}, {vs[1], &mobile}} {
		s, err := crn.New(pair.v.options()...)
		if err != nil {
			return err
		}
		for k := 0; k < dynamicsSeeds; k++ {
			sr, err := runSession(ctx, rec, s, mix(seed, uint64(600+k)))
			if err != nil {
				return err
			}
			*pair.out = append(*pair.out, sr.dissemMs)
		}
	}
	m.set("dynamics.dissem_overhead", median(mobile)/median(static), "ratio")
	return nil
}

// probeShards runs the service workload's spec through the shard
// pipeline by hand — plan, run each shard, checksum and check the
// artifacts, merge — and checks the merge against crn.Sweep. Each
// stage's time is summed over the shards of a repeat; the metric is the
// median over repeats.
func probeShards(ctx context.Context, rec *Recorder, m metricSet, sf *sweepfile.Spec) error {
	spec, err := sweepfile.BuildSweepSpec(sf, nproc())
	if err != nil {
		return err
	}
	want, err := inProcessBytes(ctx, spec)
	if err != nil {
		return err
	}
	stages := []string{"shard.plan", "shard.run", "shard.merge", "sweepfile.artifact", "sweepfile.check"}
	perRep := make(map[string][]float64)
	var artifactBytes []float64
	for rep := 0; rep < shardReps; rep++ {
		total := make(map[string]float64)
		stage := func(name string, fn func() error) error {
			ms, err := timed(rec, name, fn)
			total[name] += ms
			return err
		}
		var man *sweepfile.Manifest
		if err := stage("shard.plan", func() (err error) {
			man, err = sweepfile.NewManifest(sf, serviceShards)
			return err
		}); err != nil {
			return err
		}
		results := make([]*crn.ShardResult, len(man.Plan.Shards))
		var size int
		for k := range results {
			if err := stage("shard.run", func() (err error) {
				results[k], err = crn.RunShard(ctx, spec, man.Plan, k)
				return err
			}); err != nil {
				return err
			}
			var art *sweepfile.Artifact
			if err := stage("sweepfile.artifact", func() error {
				var err error
				if art, err = sweepfile.NewArtifact(man.PlanHash, results[k]); err != nil {
					return err
				}
				doc, err := sweepfile.MarshalPretty(art)
				size += len(doc)
				return err
			}); err != nil {
				return err
			}
			if err := stage("sweepfile.check", func() error {
				return sweepfile.CheckArtifact(man, art, k)
			}); err != nil {
				return err
			}
		}
		var merged *crn.SweepResult
		if err := stage("shard.merge", func() (err error) {
			merged, err = crn.MergeShards(man.Plan, results...)
			return err
		}); err != nil {
			return err
		}
		got, err := sweepfile.MarshalPretty(merged)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("merged shards differ from crn.Sweep")
		}
		for _, name := range stages {
			perRep[name] = append(perRep[name], total[name])
		}
		artifactBytes = append(artifactBytes, float64(size))
	}
	for _, name := range stages {
		m.set(name+"_ms", median(perRep[name]), "ms")
	}
	m.set("sweepfile.artifact_bytes", median(artifactBytes), "bytes")
	return nil
}

// probeService boots a fresh daemon with nproc workers and alternates
// traced jobs with in-process crn.Sweep runs of the same spec. It
// reports the daemon's per-verb figures and the service overhead, and
// the in-process sweeps' parallel efficiency when the workload's own
// loop runs no sweep.
func probeService(ctx context.Context, rec *Recorder, m metricSet, sf *sweepfile.Spec, dir string) (err error) {
	svc, err := bootService(ctx, dir, rec)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, svc.close()) }()
	svc.startWorkers(nproc())
	spec, err := sweepfile.BuildSweepSpec(sf, nproc())
	if err != nil {
		return err
	}
	want, err := inProcessBytes(ctx, spec)
	if err != nil {
		return err
	}
	var ops atomic.Int64
	tp := &timedPrimitive{Primitive: spec.Primitive, rec: rec, ops: &ops}
	spec.Primitive = tp
	var jobMs, sweepMs, eff []float64
	for j := 0; j < serviceJobs; j++ {
		t0 := time.Now()
		doc, err := svc.job(ctx, sf, probeOpBase+int64(j))
		jobMs = append(jobMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, want) {
			return fmt.Errorf("service bytes differ from crn.Sweep")
		}
		sp := rec.Begin("crn.sweep", 0, 0)
		t0 = time.Now()
		_, err = crn.Sweep(withSpan(ctx, sp.ID(), 0), spec)
		wall := float64(time.Since(t0).Nanoseconds()) / 1e6
		sp.End()
		if err != nil {
			return err
		}
		sweepMs = append(sweepMs, wall)
		eff = append(eff, efficiency(tp.take(), spec.Workers, time.Duration(wall*1e6)))
	}
	if _, ok := m["sweep.parallel_efficiency"]; !ok {
		m.set("sweep.parallel_efficiency", median(eff), "ratio")
	}
	reportSweepd(m, rec.Spans(), svc.tr.snapshot())
	m.set("sweepd.overhead_ratio", median(jobMs)/median(sweepMs), "ratio")
	return nil
}

// probeOpBase numbers the service probe's jobs apart from the
// workload's own operations.
const probeOpBase = 1 << 40

// reportSweepd records the per-verb figures of the service probe.
func reportSweepd(m metricSet, spans []Span, counts map[string]verbCounts) {
	for _, verb := range sweepdVerbs {
		var ms []float64
		for _, s := range spans {
			if s.Name == "sweepd."+verb && s.Op >= probeOpBase {
				ms = append(ms, float64(s.Dur())/1e6)
			}
		}
		m.set("sweepd."+verb+".count", float64(counts[verb].calls), "count")
		m.set("sweepd."+verb+".p50_ms", percentile(ms, 50), "ms")
	}
	var retries, shed int
	for _, c := range counts {
		retries += c.retryable
		shed += c.shed
	}
	acq := counts["acquire"]
	m.set("sweepd.acquire_hit_ratio", float64(acq.grants)/float64(max(acq.calls, 1)), "ratio")
	m.set("sweepd.retries", float64(retries), "count")
	m.set("sweepd.shed_429", float64(shed), "count")
}
