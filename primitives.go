package crn

import (
	"context"
	"fmt"
	"slices"

	"crn/internal/core"
	"crn/internal/dynamics"
	"crn/internal/radio"
	"crn/internal/rng"
)

// Primitive is a runnable communication primitive: one of the paper's
// algorithms (or a baseline), packaged so every entry point — the CLI,
// the experiment harness, the sweep engine — runs it the same way and
// receives the same Result envelope.
//
// Run executes the primitive once over the scenario with the given
// seed. It honors ctx: the engines poll for cancellation every 16
// sub-microsecond slots, so even slot-budgets in the millions stop
// within microseconds. Run is safe for concurrent use with distinct
// seeds over a shared Scenario.
type Primitive interface {
	// Name identifies the primitive ("cseek", "ckseek", "cgcast", ...).
	Name() string
	// Run executes one simulation and reports the common Result.
	Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error)
}

// Discovery returns the neighbor-discovery primitive: every node
// learns the identities of all its neighbors. The empty Algorithm
// selects CSeek.
func Discovery(algo Algorithm) Primitive { return discoveryPrimitive{algo: algo} }

type discoveryPrimitive struct{ algo Algorithm }

func (p discoveryPrimitive) Name() string {
	if p.algo == "" {
		return string(CSeek)
	}
	return string(p.algo)
}

func (p discoveryPrimitive) mk(s *Scenario) func(core.Env) (core.Discoverer, error) {
	return func(env core.Env) (core.Discoverer, error) {
		switch p.algo {
		case CSeek, "":
			return core.NewCSeek(s.p, env)
		case Naive:
			return core.NewNaiveSeek(s.p, env)
		case Uniform:
			return core.NewUniformSeek(s.p, env)
		default:
			return nil, fmt.Errorf("crn: unknown algorithm %q", p.algo)
		}
	}
}

func (p discoveryPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	return runDiscovery(ctx, s, p.Name(), p.mk(s), nil, seed)
}

// KDiscovery returns the k̂-neighbor-discovery primitive (CKSEEK,
// Theorem 6): every node finds (at least) all neighbors sharing at
// least khat channels with it. The result counts only those "good"
// pairs, and the run completes when every good pair is found.
func KDiscovery(khat int) Primitive { return kDiscoveryPrimitive{khat: khat} }

type kDiscoveryPrimitive struct{ khat int }

func (p kDiscoveryPrimitive) Name() string { return "ckseek" }

// khatTargets computes the per-node "good pair" target sets (neighbors
// sharing at least k̂ channels) and the realized Δ_k̂ bound CKSEEK's
// schedule is sized from.
func (p kDiscoveryPrimitive) khatTargets(s *Scenario) ([]map[radio.NodeID]bool, int, error) {
	if p.khat < s.p.K || p.khat > s.p.KMax {
		return nil, 0, fmt.Errorf("crn: k̂ must be in [k,kmax] = [%d,%d], got %d", s.p.K, s.p.KMax, p.khat)
	}
	n := s.g.N()
	targets := make([]map[radio.NodeID]bool, n)
	deltaKhat := 0
	for u := 0; u < n; u++ {
		targets[u] = make(map[radio.NodeID]bool)
		for _, v := range s.g.Neighbors(u) {
			if s.a.SharedCount(u, int(v)) >= p.khat {
				targets[u][radio.NodeID(v)] = true
			}
		}
		if len(targets[u]) > deltaKhat {
			deltaKhat = len(targets[u])
		}
	}
	return targets, deltaKhat, nil
}

func (p kDiscoveryPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	targets, deltaKhat, err := p.khatTargets(s)
	if err != nil {
		return nil, err
	}
	mk := func(env core.Env) (core.Discoverer, error) {
		return core.NewCKSeek(s.p, env, p.khat, deltaKhat)
	}
	return runDiscovery(ctx, s, p.Name(), mk, targets, seed)
}

// discoveryRun is one prepared discovery run: protocols built, network
// resolved, goal-predicate state initialized.
type discoveryRun struct {
	s       *Scenario
	name    string
	targets []map[radio.NodeID]bool

	ds     []core.Discoverer
	protos []radio.Protocol
	nw     *radio.Network

	rediscovered       int64
	rediscoveryLatency int64

	observers   []observer
	completedAt int64
	unsat       int
}

// prepareDiscovery builds one run: a discoverer per node seeded from
// the run seed, the run-scoped network, and — under a dynamic topology
// with a join log — the delivery-trace tap for re-discovery accounting.
func prepareDiscovery(s *Scenario, name string, mk func(core.Env) (core.Discoverer, error), targets []map[radio.NodeID]bool, seed uint64) (*discoveryRun, error) {
	n := s.g.N()
	master := rng.New(seed)
	dr := &discoveryRun{
		s:           s,
		name:        name,
		targets:     targets,
		ds:          make([]core.Discoverer, n),
		protos:      make([]radio.Protocol, n),
		observers:   make([]observer, n),
		completedAt: -1,
	}
	for u := 0; u < n; u++ {
		d, err := mk(core.Env{ID: radio.NodeID(u), C: s.p.C, Rand: master.Split(uint64(u))})
		if err != nil {
			return nil, err
		}
		dr.ds[u] = d
		dr.protos[u] = d
		// Per-node observation lookups for the target predicate,
		// asserted once: probing FirstHeard(id) in the stop callback
		// avoids the per-slot slice Discovered() would allocate in the
		// engine's hot loop.
		dr.observers[u], _ = d.(observer)
	}
	// Range dispatch: CSEEK/CKSEEK node sets get a SeekBank so the
	// engines drive them over whole node ranges (see radio's
	// RangeProtocol); baselines stay on per-node dispatch.
	core.BankDiscoverers(dr.ds)
	dr.nw = s.runNetwork()
	// Re-discovery accounting under a dynamic topology: protocols
	// record observations on their local clocks (frozen while down),
	// but re-discovery latency is measured on the engine clock, so tap
	// the engine's delivery trace and settle each pair the first engine
	// slot it is heard in. The feed applies slot s's joins before slot s
	// resolves, so the model's LastJoin at tap time is exactly the
	// latest join at or before the hearing slot — the accounting is
	// online and needs no post-run join history. Discovery runs on the
	// sequential engine, so the trace is ordered and race-free. Feeds
	// without a join log (pure mobility/flapping) have nothing to
	// measure against — skip the tap and its per-delivery cost.
	if joinLog, ok := dr.nw.Topology.(dynamics.JoinLog); ok {
		heardPairs := make([]map[radio.NodeID]bool, n)
		for u := range heardPairs {
			heardPairs[u] = make(map[radio.NodeID]bool)
		}
		prev := dr.nw.Trace
		dr.nw.Trace = func(slot int64, listener radio.NodeID, ch int32, msg *radio.Message) {
			heard := heardPairs[listener]
			if !heard[msg.From] {
				heard[msg.From] = true
				// A pair is re-discovered when the neighbor had already
				// gone down and rejoined by the time it was first heard;
				// the latency runs from its latest rejoin.
				if j := joinLog.LastJoin(int(msg.From)); j >= 0 {
					dr.rediscovered++
					dr.rediscoveryLatency += slot - j
				}
			}
			if prev != nil {
				prev(slot, listener, ch, msg)
			}
		}
	}
	return dr, nil
}

// maxSlots is the run's slot budget: the schedule length plus one so
// the final slot's stop check still runs inside the engine loop.
func (dr *discoveryRun) maxSlots() int64 { return dr.ds[0].TotalSlots() + 1 }

func (dr *discoveryRun) satisfied(u int) bool {
	if dr.targets == nil {
		return dr.ds[u].DiscoveredCount() >= dr.s.g.Degree(u)
	}
	if dr.observers[u] != nil {
		for id := range dr.targets[u] {
			if _, ok := dr.observers[u].FirstHeard(id); !ok {
				return false
			}
		}
		return true
	}
	found := 0
	for _, id := range dr.ds[u].Discovered() {
		if dr.targets[u][id] {
			found++
		}
	}
	return found >= len(dr.targets[u])
}

// stop is the engine stop predicate. Discovery is monotone (a found
// neighbor stays found), so it keeps a cursor at the first unsatisfied
// node: most slots cost one node's check instead of n, and the whole
// sweep over nodes is paid once per run, not once per slot.
func (dr *discoveryRun) stop(slot int64) bool {
	n := len(dr.ds)
	for ; dr.unsat < n; dr.unsat++ {
		if !dr.satisfied(dr.unsat) {
			return false
		}
	}
	dr.completedAt = slot
	return true
}

// finish assembles the Result envelope from the run's end state and
// the engine's stats.
func (dr *discoveryRun) finish(st radio.Stats) *Result {
	s, n := dr.s, len(dr.ds)
	det := &DiscoveryDetail{
		Algorithm:  dr.name,
		Neighbors:  make([][]int, n),
		FirstHeard: make([][]int64, n),
	}
	// found[v] == u+1 marks v as discovered by u.
	found := make([]int32, n)
	for u := 0; u < n; u++ {
		discovered := dr.ds[u].Discovered()
		// Baselines' Discovered() carries no order guarantee (it drains
		// a map); sort so Results — and therefore sweep runs — are
		// reproducible byte for byte.
		slices.Sort(discovered)
		if len(discovered) > 0 {
			neighbors := make([]int, len(discovered))
			firstHeard := make([]int64, len(discovered))
			for i, id := range discovered {
				found[id] = int32(u + 1)
				neighbors[i] = int(id)
				firstHeard[i] = -1
				if o := dr.observers[u]; o != nil {
					if slot, ok := o.FirstHeard(id); ok {
						firstHeard[i] = slot
					}
				}
			}
			det.Neighbors[u], det.FirstHeard[u] = neighbors, firstHeard
		}
		if dr.targets == nil {
			det.PairsTotal += s.g.Degree(u)
			for _, v := range s.g.Neighbors(u) {
				if found[v] == int32(u+1) {
					det.PairsDiscovered++
				}
			}
			continue
		}
		for _, v := range s.g.Neighbors(u) {
			if !dr.targets[u][radio.NodeID(v)] {
				continue
			}
			det.PairsTotal++
			if found[v] == int32(u+1) {
				det.PairsDiscovered++
			}
		}
	}
	res := &Result{
		Primitive:       dr.name,
		ScheduleSlots:   dr.ds[0].TotalSlots(),
		CompletedAtSlot: dr.completedAt,
		Completed:       dr.completedAt >= 0,
		Discovery:       det,
		Spectrum:        spectrumDetail(st),
	}
	if dr.nw.Topology != nil {
		top := topologyDetail(st)
		top.RediscoveredPairs = int(dr.rediscovered)
		top.RediscoveryLatencyTotal = dr.rediscoveryLatency
		res.Topology = top
	}
	return res
}

// runDiscovery drives one discovery protocol instance per node until
// the goal predicate holds or the schedule ends. When targets is nil
// the goal is "every node knows all its graph neighbors" and pairs are
// counted against the full neighbor universe; otherwise targets[u] is
// the set node u must find, and pairs are counted against it.
func runDiscovery(ctx context.Context, s *Scenario, name string, mk func(core.Env) (core.Discoverer, error), targets []map[radio.NodeID]bool, seed uint64) (*Result, error) {
	dr, err := prepareDiscovery(s, name, mk, targets, seed)
	if err != nil {
		return nil, err
	}
	e, err := radio.NewEngine(dr.nw, dr.protos)
	if err != nil {
		return nil, err
	}
	st, err := e.RunUntilCtx(ctx, dr.maxSlots(), dr.stop)
	if err != nil {
		return nil, err
	}
	return dr.finish(st), nil
}

// topologyDetail maps engine counters into the Result envelope's
// topology-dynamics block.
func topologyDetail(st radio.Stats) *TopologyDetail {
	return &TopologyDetail{
		EdgeAdds:        st.EdgeAdds,
		EdgeRemoves:     st.EdgeRemoves,
		NodeJoins:       st.NodeJoins,
		NodeLeaves:      st.NodeLeaves,
		DownNodeSlots:   st.DownSlots,
		PartitionLosses: st.PartitionLosses,
	}
}

// spectrumDetail maps engine counters into the Result envelope's
// spectrum accounting block.
func spectrumDetail(st radio.Stats) *SpectrumDetail {
	return &SpectrumDetail{
		Listens:       st.Listens,
		Deliveries:    st.Deliveries,
		Collisions:    st.Collisions,
		JammedListens: st.JammedListens,
	}
}

// observer is the optional per-neighbor observation interface some
// discoverers (CSEEK and variants) expose.
type observer interface {
	FirstHeard(radio.NodeID) (slot int64, ok bool)
}

// BroadcastOption configures the GlobalBroadcast primitive and
// broadcast sessions.
type BroadcastOption func(*broadcastOptions)

type broadcastOptions struct {
	mode core.BroadcastMode
}

// WithFullFidelity makes CGCAST simulate every CSEEK exchange in the
// radio model instead of using the slot-equivalent oracle. Slower, but
// end-to-end faithful; see DESIGN.md.
func WithFullFidelity() BroadcastOption {
	return func(o *broadcastOptions) { o.mode = core.ExchangeFull }
}

func resolveBroadcastOptions(opts []BroadcastOption) broadcastOptions {
	o := broadcastOptions{mode: core.ExchangeAbstract}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// GlobalBroadcast returns the CGCAST global-broadcast primitive
// (Theorem 9): the full setup pipeline (discovery, dedicated-channel
// fixing, edge coloring, announcement) followed by one dissemination
// of message from the source node.
func GlobalBroadcast(source int, message any, opts ...BroadcastOption) Primitive {
	return globalBroadcastPrimitive{source: source, message: message, opts: resolveBroadcastOptions(opts)}
}

type globalBroadcastPrimitive struct {
	source  int
	message any
	opts    broadcastOptions
}

func (p globalBroadcastPrimitive) Name() string { return "cgcast" }

func (p globalBroadcastPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	nw := s.runNetwork()
	res, err := core.RunCGCastCtx(ctx, nw, core.BroadcastConfig{
		Params:  s.p,
		D:       s.d,
		Source:  radio.NodeID(p.source),
		Message: p.message,
		Mode:    p.opts.mode,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Primitive:       p.Name(),
		ScheduleSlots:   res.TotalSlots,
		CompletedAtSlot: res.AllInformedAt,
		Completed:       res.AllInformed,
		Broadcast: &BroadcastDetail{
			SetupSlots:          res.SetupSlots,
			DissemScheduleSlots: res.DissemScheduleSlots,
			AllInformed:         res.AllInformed,
			EdgesColored:        res.EdgesColored,
			EdgesDropped:        res.EdgesDropped,
			ColoringValid:       res.ColoringValid,
		},
		Spectrum: spectrumDetail(res.Radio),
	}
	if nw.Topology != nil {
		out.Topology = topologyDetail(res.Radio)
	}
	return out, nil
}

// Flooding returns the naive flooding broadcast baseline: informed
// nodes hop channels at random and broadcast with a back-off coin,
// paying a fresh rendezvous for every hop.
func Flooding(source int, message any) Primitive {
	return floodingPrimitive{source: source, message: message}
}

type floodingPrimitive struct {
	source  int
	message any
}

func (p floodingPrimitive) Name() string { return "flood" }

func (p floodingPrimitive) Run(ctx context.Context, s *Scenario, seed uint64) (*Result, error) {
	nw := s.runNetwork()
	res, err := core.RunFloodCtx(ctx, nw, s.p, s.d, radio.NodeID(p.source), p.message, seed)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Primitive:       p.Name(),
		ScheduleSlots:   res.ScheduleSlots,
		CompletedAtSlot: res.AllInformedAt,
		Completed:       res.AllInformed,
		Broadcast: &BroadcastDetail{
			DissemScheduleSlots: res.ScheduleSlots,
			AllInformed:         res.AllInformed,
		},
		Spectrum: spectrumDetail(res.Radio),
	}
	if nw.Topology != nil {
		out.Topology = topologyDetail(res.Radio)
	}
	return out, nil
}
