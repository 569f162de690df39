package core

import (
	"context"
	"fmt"

	"crn/internal/coloring"
	"crn/internal/graph"
	"crn/internal/radio"
	"crn/internal/rng"
)

// CGCAST (Section 5) solves global broadcast in
// O~((c²/k) + (kmax/k)·Δ + D·Δ) slots, w.h.p. The pipeline:
//
//  1. Run CSEEK so every node learns its neighbors, recording for every
//     slot which channel the node was tuned to.
//  2. Run CSEEK again, attaching to each frame the map of first-heard
//     slots from stage 1. Each edge's endpoints then agree on a
//     dedicated communication channel: the channel they used in slot
//     min(t_uv, t_vu) of stage 1 — computable on both sides from local
//     logs despite the absence of global channel labels (Section 5.2).
//  3. Edge-color the network with 2Δ colors by running the Luby-style
//     node coloring on the line graph. Each edge (u,v) is simulated by
//     the endpoint with the smaller identifier; every coloring step
//     exchanges proposals/decisions among virtual-node neighbors, which
//     are at most two hops apart, via two CSEEK executions (the second
//     relays what the first delivered).
//  4. Run CSEEK once more so each simulator announces the final edge
//     color to the other endpoint.
//  5. Disseminate: D phases × 2Δ steps; step s is dedicated to color s.
//     A node whose color-s edge exists goes to that edge's dedicated
//     channel; if it knows the message it back-off-broadcasts for
//     Θ(lg n) rounds of lg Δ slots, otherwise it listens. The message
//     crosses at least one hop per phase, w.h.p. (Theorem 9).
//
// Stages 1–4 are pure message exchange. BroadcastConfig.Mode selects
// their fidelity: ExchangeFull simulates every CSEEK slot in the radio
// model; ExchangeAbstract delivers the same payloads to the same
// recipients through an oracle while charging the identical slot
// budget (see DESIGN.md, "Exchange fidelity"). Stage 5 always
// runs in the radio model.

// BroadcastMode selects the exchange fidelity of CGCAST stages 1–4.
type BroadcastMode int

// Exchange fidelity modes.
const (
	// ExchangeFull runs every CSEEK exchange in the radio model.
	ExchangeFull BroadcastMode = iota + 1
	// ExchangeAbstract delivers exchange payloads through an oracle at
	// the same slot cost; discovery metadata (neighbor sets, dedicated
	// channels) is synthesized from ground truth.
	ExchangeAbstract
)

// BroadcastConfig configures one CGCAST run.
type BroadcastConfig struct {
	// Params are the model parameters (normalized by RunCGCast).
	Params Params
	// D is the network diameter, which the paper assumes known for the
	// dissemination schedule.
	D int
	// Source is the node holding the message.
	Source radio.NodeID
	// Message is the payload to disseminate.
	Message any
	// Mode selects exchange fidelity; zero value means ExchangeAbstract.
	Mode BroadcastMode
	// Seed drives all protocol randomness.
	Seed uint64
}

// BroadcastResult reports the outcome and slot accounting of a run.
type BroadcastResult struct {
	// TotalSlots is the full charged cost: stages 1–4 plus the complete
	// dissemination schedule.
	TotalSlots int64
	// SetupSlots is the cost of stages 1–4 (discovery, exchange,
	// coloring, announce).
	SetupSlots int64
	// DissemScheduleSlots is the fixed length of stage 5.
	DissemScheduleSlots int64
	// AllInformedAt is the slot within stage 5 after which every node
	// held the message, or -1 if some node finished uninformed.
	AllInformedAt int64
	// AllInformed reports whether every node held the message.
	AllInformed bool
	// Informed[u] reports whether node u held the message at the end.
	Informed []bool
	// ColoringPhases is the number of coloring phases executed.
	ColoringPhases int
	// EdgesColored counts edges that obtained a color at both
	// endpoints.
	EdgesColored int
	// EdgesDropped counts graph edges that failed discovery, exchange,
	// or coloring and were left out of the dissemination schedule.
	EdgesDropped int
	// ColoringValid reports whether the realized edge coloring is
	// proper on the colored subgraph.
	ColoringValid bool
	// Radio accumulates engine counters over the stages that ran in the
	// radio model: dissemination always, plus the setup exchanges in
	// ExchangeFull mode. Spectrum accounting (jammed listener-slots)
	// lives here. Radio.Completed reports whether every such engine run
	// finished its schedule (stage failures surface as errors before a
	// result exists, so it is true on any returned result).
	Radio radio.Stats
}

// RunCGCast executes one CGCAST broadcast over the given network:
// the full setup pipeline (stages 1–4) followed by one dissemination.
// To amortize the setup over many broadcasts, use PrepareCGCast and
// BroadcastSession.Disseminate instead.
func RunCGCast(nw *radio.Network, cfg BroadcastConfig) (*BroadcastResult, error) {
	return RunCGCastCtx(context.Background(), nw, cfg)
}

// RunCGCastCtx is RunCGCast with cooperative cancellation: ctx is
// checked between pipeline stages and polled throughout each one, so
// a long setup or dissemination stops early when ctx is cancelled.
func RunCGCastCtx(ctx context.Context, nw *radio.Network, cfg BroadcastConfig) (*BroadcastResult, error) {
	session, err := PrepareCGCastCtx(ctx, nw, SessionConfig{
		Params: cfg.Params,
		Mode:   cfg.Mode,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	dres, err := session.DisseminateCtx(ctx, cfg.D, cfg.Source, cfg.Message, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	res := &BroadcastResult{
		SetupSlots:          session.SetupSlots(),
		DissemScheduleSlots: dres.ScheduleSlots,
		TotalSlots:          session.SetupSlots() + dres.ScheduleSlots,
		AllInformedAt:       dres.AllInformedAt,
		AllInformed:         dres.AllInformed,
		Informed:            dres.Informed,
		ColoringPhases:      session.phases,
		Radio:               session.setupRadio,
	}
	res.Radio.Accumulate(dres.Radio)
	// Every contributing engine run completed or we would have errored
	// out above; Accumulate leaves Completed alone, so set it from the
	// dissemination run.
	res.Radio.Completed = dres.Radio.Completed
	session.fillColoringStats(res)
	return res, nil
}

// SessionConfig configures the reusable setup of CGCAST (stages 1–4).
type SessionConfig struct {
	// Params are the model parameters (normalized by PrepareCGCast).
	Params Params
	// Mode selects exchange fidelity; zero value means ExchangeAbstract.
	Mode BroadcastMode
	// Seed drives the setup randomness.
	Seed uint64
}

// BroadcastSession is the product of CGCAST's setup: discovered
// neighbors, per-edge dedicated channels, and a proper 2Δ edge
// coloring. The session can disseminate any number of messages from
// any sources, each costing only the O~(D·Δ) dissemination schedule —
// this is where CGCAST's one-time setup amortizes.
type BroadcastSession struct {
	nw *radio.Network
	p  Params
	n  int
	// colors[e] is the final color of edge e (a position in
	// nw.Graph.Edges()), or coloring.NoColor if the edge was dropped.
	colors     []int
	setupSlots int64
	setupRadio radio.Stats
	phases     int
	// schedules[u] maps color -> u's local dedicated channel (-1 when
	// none), precomputed once: every dissemination reuses it read-only.
	schedules [][]int32
}

// PrepareCGCast runs CGCAST stages 1–4 (discovery, dedicated-channel
// fixing, edge coloring, color announcement) and returns the reusable
// session.
func PrepareCGCast(nw *radio.Network, cfg SessionConfig) (*BroadcastSession, error) {
	return PrepareCGCastCtx(context.Background(), nw, cfg)
}

// PrepareCGCastCtx is PrepareCGCast with cooperative cancellation: ctx
// is checked between coloring phases and polled throughout each one.
func PrepareCGCastCtx(ctx context.Context, nw *radio.Network, cfg SessionConfig) (*BroadcastSession, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = ExchangeAbstract
	}
	if ctx == nil {
		ctx = context.Background()
	}
	d := &cgcastDriver{
		ctx:    ctx,
		nw:     nw,
		p:      p,
		mode:   mode,
		master: rng.New(cfg.Seed),
		n:      nw.Graph.N(),
	}
	return d.prepare()
}

// SetupSlots returns the slot cost of stages 1–4.
func (s *BroadcastSession) SetupSlots() int64 { return s.setupSlots }

// ColoringPhases returns the number of coloring phases executed.
func (s *BroadcastSession) ColoringPhases() int { return s.phases }

// EdgesColored returns the number of graph edges with a color at both
// endpoints.
func (s *BroadcastSession) EdgesColored() int {
	colored := 0
	for _, c := range s.colors {
		if c != coloring.NoColor {
			colored++
		}
	}
	return colored
}

// DissemResult reports one dissemination over a prepared session.
type DissemResult struct {
	// ScheduleSlots is the dissemination schedule length (D·2Δ·rounds·lgΔ).
	ScheduleSlots int64
	// AllInformedAt is the slot after which every node held the
	// message, or -1.
	AllInformedAt int64
	// AllInformed reports whether every node held the message.
	AllInformed bool
	// Informed[u] reports whether node u held the message at the end.
	Informed []bool
	// Radio holds the dissemination engine's counters (deliveries,
	// collisions, jammed listener-slots).
	Radio radio.Stats
}

// cgcastDriver runs stages 1–4 over flat edge state laid out on the
// graph's sorted (CSR) adjacency. Edge ids are positions in
// g.Edges(); a slot is one endpoint's view of an incident edge, and
// node u's slots off[u]..off[u+1]-1 follow its ascending neighbor
// list. That order is ascending (U,V)-key order of u's incident edges
// — (v,u) for the neighbors v < u, then (u,v) for v > u — so walking
// the slots reproduces the canonical edge order that fixes Propose's
// draw order.
type cgcastDriver struct {
	ctx    context.Context
	nw     *radio.Network
	p      Params
	mode   BroadcastMode
	master *rng.Source
	n      int

	// exchangeSlots is the canonical cost of one CSEEK execution,
	// charged per exchange in both modes.
	exchangeSlots int64

	edges    []graph.Edge // edge id -> endpoints, U < V (nw.Graph.Edges())
	off      []int32      // node -> first slot; off[n] is the slot count
	slotEdge []int32      // slot -> edge id
	// localCh[slot] is that endpoint's local label of the edge's
	// dedicated channel, or -1 where the endpoint did not establish it.
	localCh []int32
	// live[e]: edge e is established at both endpoints (set by stages
	// 1–2; the coloring runs on live edges only).
	live []bool
	// sims[e] is edge e's virtual line-graph node, simulated by its
	// smaller endpoint edges[e].U.
	sims []coloring.NodeState
	// entry[e] is this coloring step's proposal or decision of edge e,
	// or coloring.NoColor.
	entry []int
	// colors[e] is the final announced color, or coloring.NoColor.
	colors []int

	// nbrs[u] is g.Neighbors(u): who hears u in an abstract exchange.
	nbrs [][]int32
	// mark/epoch stamp one node's two-hop view at a time: w is in the
	// current view iff mark[w] == epoch.
	mark    []uint32
	epoch   uint32
	scratch []int

	setupSlots int64
	setupRadio radio.Stats // engine counters of full-mode exchanges
	stage      int         // monotone counter used for RNG stream separation
}

func (d *cgcastDriver) prepare() (*BroadcastSession, error) {
	// Canonical exchange cost: one CSEEK execution length.
	probe, err := NewCSeek(d.p, Env{ID: 0, C: d.p.C, Rand: rng.New(1)})
	if err != nil {
		return nil, err
	}
	d.exchangeSlots = probe.TotalSlots()

	d.buildEdgeState()
	if err := d.establishEdges(); err != nil {
		return nil, err
	}
	phases := scaledSteps(d.p.Tuning.ColoringPhases, 1, d.p.LgN())
	if err := d.colorEdges(phases); err != nil {
		return nil, err
	}
	if err := d.announceColors(); err != nil {
		return nil, err
	}
	return &BroadcastSession{
		nw:         d.nw,
		p:          d.p,
		n:          d.n,
		colors:     d.colors,
		setupSlots: d.setupSlots,
		setupRadio: d.setupRadio,
		phases:     phases,
		schedules:  d.schedules(),
	}, nil
}

// buildEdgeState lays the per-slot and per-edge arrays over the graph's
// sorted adjacency. Edge ids are handed out walking each node's upper
// neighbors (v > u) in order, which is the sorted g.Edges() order; the
// lower half of every list is filled by a per-node cursor, since node
// v's neighbors u < v arrive in ascending u.
func (d *cgcastDriver) buildEdgeState() {
	g := d.nw.Graph
	// The engine finalizes its graph on construction; abstract setup
	// runs none, so sort the adjacency here (idempotent).
	g.Finalize()
	d.edges = g.Edges()
	n, m := d.n, g.M()
	d.off = make([]int32, n+1)
	d.nbrs = make([][]int32, n)
	for u := 0; u < n; u++ {
		d.nbrs[u] = g.Neighbors(u)
		d.off[u+1] = d.off[u] + int32(len(d.nbrs[u]))
	}
	d.slotEdge = make([]int32, 2*m)
	d.localCh = make([]int32, 2*m)
	for s := range d.localCh {
		d.localCh[s] = -1
	}
	cursor := make([]int32, n)
	copy(cursor, d.off[:n])
	e := int32(0)
	for u := 0; u < n; u++ {
		for i, v := range d.nbrs[u] {
			if int(v) < u {
				continue
			}
			d.slotEdge[d.off[u]+int32(i)] = e
			d.slotEdge[cursor[v]] = e
			cursor[v]++
			e++
		}
	}
	d.live = make([]bool, m)
	d.sims = coloring.NewNodeStates(m, 2*d.p.Delta)
	d.entry = make([]int, m)
	d.colors = make([]int, m)
	for e := range d.entry {
		d.entry[e] = coloring.NoColor
		d.colors[e] = coloring.NoColor
	}
	d.mark = make([]uint32, n)
}

// schedules derives each node's color -> dedicated-channel map from
// the final (post-drop) edge colors. The session's whole point is
// many disseminations per setup, so this is computed once, not per
// message. Slots run in sorted edge order, so when two of a node's
// edges share a color the last one wins.
func (d *cgcastDriver) schedules() [][]int32 {
	numColors := 2 * d.p.Delta
	flat := make([]int32, d.n*numColors)
	for i := range flat {
		flat[i] = -1
	}
	out := make([][]int32, d.n)
	for u := 0; u < d.n; u++ {
		schedule := flat[u*numColors : (u+1)*numColors : (u+1)*numColors]
		for s := d.off[u]; s < d.off[u+1]; s++ {
			if c := d.colors[d.slotEdge[s]]; c >= 0 && c < numColors {
				schedule[c] = d.localCh[s]
			}
		}
		out[u] = schedule
	}
	return out
}

// nodeRand returns a fresh deterministic stream for (stage, node).
func (d *cgcastDriver) nodeRand(u int) *rng.Source {
	return d.master.Split(uint64(d.stage)<<32 | uint64(u))
}

// nextStage advances the RNG stream domain separator.
func (d *cgcastDriver) nextStage() { d.stage++ }

// ----- Stages 1 & 2: discovery and dedicated-channel fixing -----

func (d *cgcastDriver) establishEdges() error {
	if d.mode == ExchangeAbstract {
		// Oracle: adjacency from ground truth; the dedicated channel is
		// the lowest-numbered shared global channel. Charge two CSEEK
		// executions (stages 1 and 2).
		for u := 0; u < d.n; u++ {
			for i, v := range d.nbrs[u] {
				if g, ok := d.nw.Assign.FirstShared(u, int(v)); ok {
					d.localCh[d.off[u]+int32(i)] = d.nw.Assign.Local(u, g)
				}
			}
		}
		d.setupSlots += 2 * d.exchangeSlots
		d.nextStage()
		d.nextStage()
		d.markLive()
		return nil
	}

	// Full mode, stage 1: CSEEK with channel logging.
	stage1 := make([]*CSeek, d.n)
	protos := make([]radio.Protocol, d.n)
	for u := 0; u < d.n; u++ {
		s, err := NewCSeek(d.p, Env{ID: radio.NodeID(u), C: d.p.C, Rand: d.nodeRand(u)})
		if err != nil {
			return err
		}
		s.RecordChannels()
		stage1[u] = s
		protos[u] = s
	}
	NewSeekBank(stage1)
	if err := d.runEngine(protos); err != nil {
		return err
	}
	d.nextStage()

	// Stage 2: CSEEK again; v's frames carry v's stage-1 first-heard
	// log, which the driver reads from stage1[v] wherever a frame from
	// v reached u.
	stage2 := make([]*CSeek, d.n)
	for u := 0; u < d.n; u++ {
		s, err := NewCSeek(d.p, Env{ID: radio.NodeID(u), C: d.p.C, Rand: d.nodeRand(u)})
		if err != nil {
			return err
		}
		stage2[u] = s
		protos[u] = s
	}
	NewSeekBank(stage2)
	if err := d.runEngine(protos); err != nil {
		return err
	}
	d.nextStage()

	// Fix dedicated channels: u establishes (u,v) iff it heard v in
	// stage 1 and, in stage 2, received v's first-heard log naming u.
	// The first meeting is found on the engine clock, which both
	// endpoints share: under a topology feed their local clocks freeze
	// while they are down and stop lining up. At that slot the hearer
	// listened on the sender's channel, so both ends read the same
	// global channel from their own logs.
	for u := 0; u < d.n; u++ {
		uid := radio.NodeID(u)
		for i, v := range d.nbrs[u] {
			vid := radio.NodeID(v)
			tUV, ok := stage1[u].FirstHeardEngine(vid)
			if !ok {
				continue
			}
			if _, ok := stage2[u].FirstHeard(vid); !ok {
				continue
			}
			tVU, ok := stage1[v].FirstHeardEngine(uid)
			if !ok {
				continue
			}
			if ch, ok := stage1[u].ChannelAtEngine(min(tUV, tVU)); ok {
				d.localCh[d.off[u]+int32(i)] = ch
			}
		}
	}
	d.markLive()
	return nil
}

// markLive keeps the edges established at both endpoints; an edge
// established on one side only (or neither) is dropped.
func (d *cgcastDriver) markLive() {
	ends := make([]uint8, len(d.live))
	for s, ch := range d.localCh {
		if ch >= 0 {
			ends[d.slotEdge[s]]++
		}
	}
	for e, k := range ends {
		d.live[e] = k == 2
	}
}

// ----- Stage 3: line-graph coloring over exchange epochs -----

func (d *cgcastDriver) colorEdges(phases int) error {
	for phase := 0; phase < phases; phase++ {
		if err := d.ctx.Err(); err != nil {
			return err
		}
		// Step one: propose and exchange proposals two hops out. Each
		// simulator walks its edges in sorted order: Propose draws from
		// the node's per-stage stream, so the order fixes the coloring.
		// Propose returns NoColor without a draw once a virtual node has
		// decided.
		for u := 0; u < d.n; u++ {
			r := d.nodeRand(u)
			for s := d.upperSlot(u); s < d.off[u+1]; s++ {
				if e := d.slotEdge[s]; d.live[e] {
					d.entry[e] = d.sims[e].Propose(r)
				}
			}
		}
		d.nextStage()
		heardA, heardB, err := d.exchangeTwoHop()
		if err != nil {
			return err
		}
		// Resolve conflicts against every adjacent proposal in view,
		// then keep only the proposals that became decisions.
		for u := 0; u < d.n; u++ {
			d.forSimulated(u, heardA, heardB, func(e int32, sim *coloring.NodeState) {
				if d.entry[e] != coloring.NoColor {
					sim.ResolveConflicts(d.adjacentEntries(u, e))
				}
			})
		}
		for e, c := range d.entry {
			if c != coloring.NoColor && d.sims[e].Active() {
				d.entry[e] = coloring.NoColor
			}
		}
		// Step two: exchange decisions, strike colors from plates.
		heardA, heardB, err = d.exchangeTwoHop()
		if err != nil {
			return err
		}
		for u := 0; u < d.n; u++ {
			d.forSimulated(u, heardA, heardB, func(e int32, sim *coloring.NodeState) {
				sim.ObserveDecisions(d.adjacentEntries(u, e))
			})
		}
	}
	return nil
}

// upperSlot returns u's first slot whose neighbor is above u: the
// edges u simulates are exactly its slots from there to off[u+1].
func (d *cgcastDriver) upperSlot(u int) int32 {
	s := d.off[u]
	for s < d.off[u+1] && int(d.nbrs[u][s-d.off[u]]) < u {
		s++
	}
	return s
}

// forSimulated stamps u's two-hop view and calls fn for every still
// active virtual node u simulates, in sorted edge order.
func (d *cgcastDriver) forSimulated(u int, heardA, heardB [][]int32, fn func(e int32, sim *coloring.NodeState)) {
	first := d.upperSlot(u)
	if first == d.off[u+1] {
		return
	}
	d.stampView(u, heardA, heardB)
	for s := first; s < d.off[u+1]; s++ {
		e := d.slotEdge[s]
		if sim := &d.sims[e]; d.live[e] && sim.Active() {
			fn(e, sim)
		}
	}
}

// stampView marks u's two-hop view after an exchange pair: the senders
// u heard in the first exchange, those it heard in the relay exchange,
// and everyone those relays had heard first. A view is the set of
// simulators whose entries reached u.
func (d *cgcastDriver) stampView(u int, heardA, heardB [][]int32) {
	d.epoch++
	for _, w := range heardA[u] {
		d.mark[w] = d.epoch
	}
	for _, v := range heardB[u] {
		d.mark[v] = d.epoch
		for _, w := range heardA[v] {
			d.mark[w] = d.epoch
		}
	}
}

// adjacentEntries collects the entries of e's line-graph neighbors
// (the other edges at either endpoint) that simulator u can see: its
// own, and those whose simulator is in u's stamped view. The slice is
// scratch, valid until the next call.
func (d *cgcastDriver) adjacentEntries(u int, e int32) []int {
	out := d.scratch[:0]
	ends := d.edges[e]
	for _, end := range [2]int32{ends.U, ends.V} {
		for s := d.off[end]; s < d.off[end+1]; s++ {
			f := d.slotEdge[s]
			c := d.entry[f]
			if f == e || c == coloring.NoColor {
				continue
			}
			if sim := d.edges[f].U; int(sim) == u || d.mark[sim] == d.epoch {
				out = append(out, c)
			}
		}
	}
	d.scratch = out
	return out
}

// exchangeTwoHop runs the two one-hop exchanges that carry every
// simulator's entries two hops out (the second relays what the first
// delivered) and returns who heard whom in each. Cost: two CSEEK
// executions.
func (d *cgcastDriver) exchangeTwoHop() (heardA, heardB [][]int32, err error) {
	if heardA, err = d.exchange(); err != nil {
		return nil, nil, err
	}
	if heardB, err = d.exchange(); err != nil {
		return nil, nil, err
	}
	return heardA, heardB, nil
}

// exchange performs one one-hop all-pairs exchange and returns, for
// each node, the senders it heard. In full mode this is a CSEEK
// execution and the heard sets are what each node discovered; in
// abstract mode an oracle at identical slot cost delivers every
// neighbor. Frame contents never change a radio outcome, so the
// entries a frame would carry are read from the driver's flat state
// wherever the frame arrived.
func (d *cgcastDriver) exchange() ([][]int32, error) {
	defer d.nextStage()
	if err := d.ctx.Err(); err != nil {
		return nil, err
	}
	if d.mode == ExchangeAbstract {
		d.setupSlots += d.exchangeSlots
		return d.nbrs, nil
	}

	seeks := make([]*CSeek, d.n)
	protos := make([]radio.Protocol, d.n)
	for u := 0; u < d.n; u++ {
		s, err := NewCSeek(d.p, Env{ID: radio.NodeID(u), C: d.p.C, Rand: d.nodeRand(u)})
		if err != nil {
			return nil, err
		}
		seeks[u] = s
		protos[u] = s
	}
	NewSeekBank(seeks)
	if err := d.runEngine(protos); err != nil {
		return nil, err
	}
	heard := make([][]int32, d.n)
	for u := 0; u < d.n; u++ {
		for _, v := range seeks[u].Discovered() {
			heard[u] = append(heard[u], int32(v))
		}
	}
	return heard, nil
}

// runEngine executes one full-schedule protocol set and charges its
// slots to setup.
func (d *cgcastDriver) runEngine(protos []radio.Protocol) error {
	e, err := radio.NewEngine(d.nw, protos)
	if err != nil {
		return err
	}
	st, err := e.RunUntilCtx(d.ctx, d.exchangeSlots+1, nil)
	if err != nil {
		return err
	}
	// A fixed-length schedule that fails to finish is an engine or
	// schedule bug in the static model — but under a dynamic topology
	// a down node legitimately freezes mid-schedule, so partial
	// exchanges are an expected degradation outcome there.
	if !st.Completed && d.nw.Topology == nil {
		return fmt.Errorf("core: exchange stage did not complete in %d slots", d.exchangeSlots)
	}
	d.setupRadio.Accumulate(st)
	d.setupSlots += d.exchangeSlots
	return nil
}

// ----- Stage 4: color announcement -----

// announceColors runs one exchange in which every simulator announces
// its decided colors. An edge keeps its color iff its simulator decided
// and the other endpoint heard the announcement; every other edge is
// dropped from the dissemination schedule.
func (d *cgcastDriver) announceColors() error {
	d.nextStage()
	heard, err := d.exchange()
	if err != nil {
		return err
	}
	for v := 0; v < d.n; v++ {
		d.epoch++
		for _, w := range heard[v] {
			d.mark[w] = d.epoch
		}
		// v's slots below upperSlot(v) are the edges it does not
		// simulate: their simulator is the neighbor u < v.
		for i, u := range d.nbrs[v] {
			if int(u) > v {
				break
			}
			e := d.slotEdge[d.off[v]+int32(i)]
			if c := d.sims[e].Color(); d.live[e] && c != coloring.NoColor && d.mark[u] == d.epoch {
				d.colors[e] = c
			}
		}
	}
	return nil
}

// ----- Stage 5: dissemination -----

// Disseminate runs one message dissemination over the prepared
// session: D phases of 2Δ color-steps, each step Θ(lg n) back-off
// rounds of lg Δ slots on the edge's dedicated channel.
func (s *BroadcastSession) Disseminate(dD int, source radio.NodeID, msg any, seed uint64) (*DissemResult, error) {
	return s.DisseminateCtx(context.Background(), dD, source, msg, seed)
}

// DisseminateCtx is Disseminate with cooperative cancellation: ctx is
// polled throughout the dissemination run.
func (s *BroadcastSession) DisseminateCtx(ctx context.Context, dD int, source radio.NodeID, msg any, seed uint64) (*DissemResult, error) {
	if dD < 1 {
		return nil, fmt.Errorf("core: D must be >= 1, got %d", dD)
	}
	if int(source) < 0 || int(source) >= s.n {
		return nil, fmt.Errorf("core: source %d out of range", source)
	}
	rounds := scaledSteps(s.p.Tuning.DissemRounds, 1, s.p.LgN())
	protos := make([]radio.Protocol, s.n)
	dps := make([]*dissemProto, s.n)
	master := rng.New(seed)
	for u := 0; u < s.n; u++ {
		dp := &dissemProto{
			env:      Env{ID: radio.NodeID(u), C: s.p.C, Rand: master.Split(uint64(u))},
			schedule: s.schedules[u],
			phases:   dD,
			rounds:   rounds,
			lgDelta:  s.p.LgDelta(),
			delta:    s.p.Delta,
			informed: radio.NodeID(u) == source,
			msg:      msg,
			frame:    dissemMessage{Body: msg},
		}
		dps[u] = dp
		protos[u] = dp
	}
	newDissemBank(dps)
	e, err := radio.NewEngine(s.nw, protos)
	if err != nil {
		return nil, err
	}
	scheduleSlots := dps[0].totalSlots()

	allInformedAt := int64(-1)
	st, err := e.RunUntilCtx(ctx, scheduleSlots+1, func(slot int64) bool {
		if allInformedAt >= 0 {
			return false // keep running the schedule to full length
		}
		for _, dp := range dps {
			if !dp.informed {
				return false
			}
		}
		allInformedAt = slot
		return false
	})
	if err != nil {
		return nil, err
	}
	// See runEngine: incomplete fixed schedules are a bug in the
	// static model, a measured outcome under a dynamic topology (down
	// nodes freeze mid-schedule).
	if !st.Completed && s.nw.Topology == nil {
		return nil, fmt.Errorf("core: dissemination did not complete in %d slots", scheduleSlots)
	}

	res := &DissemResult{
		ScheduleSlots: scheduleSlots,
		AllInformedAt: allInformedAt,
		AllInformed:   true,
		Informed:      make([]bool, s.n),
		Radio:         st,
	}
	for u, dp := range dps {
		res.Informed[u] = dp.informed
		if !dp.informed {
			res.AllInformed = false
		}
	}
	return res, nil
}

func (s *BroadcastSession) fillColoringStats(res *BroadcastResult) {
	res.EdgesColored = s.EdgesColored()
	res.EdgesDropped = s.nw.Graph.M() - res.EdgesColored
	res.ColoringValid = coloring.ValidatePartialEdgeColoring(s.nw.Graph, s.colors) == nil
}

// dissemProto is the stage-5 per-node protocol: D phases × 2Δ steps ×
// rounds × lgΔ slots, with step s dedicated to edge color s.
type dissemProto struct {
	env      Env
	schedule []int32 // color -> local dedicated channel, -1 if none
	phases   int
	rounds   int
	lgDelta  int
	delta    int
	informed bool
	msg      any
	// frame is the pre-boxed dissemMessage carrying msg, refreshed
	// when the node learns the message, so Act never allocates.
	frame any

	slot        int64
	informedAt  int64
	wasInformed bool // informed state latched at the start of each step

	// bank/bankIdx back-reference the dissemBank (range dispatch).
	bank    *dissemBank
	bankIdx int
}

var _ radio.Protocol = (*dissemProto)(nil)

// dissemMessage is the stage-5 frame body.
type dissemMessage struct {
	Body any
}

func (dp *dissemProto) slotsPerStep() int64 { return int64(dp.rounds) * int64(dp.lgDelta) }

func (dp *dissemProto) totalSlots() int64 {
	return int64(dp.phases) * int64(len(dp.schedule)) * dp.slotsPerStep()
}

// Act implements radio.Protocol.
func (dp *dissemProto) Act(_ int64) radio.Action {
	perStep := dp.slotsPerStep()
	step := int(dp.slot / perStep % int64(len(dp.schedule)))
	slotInStep := dp.slot % perStep
	if slotInStep == 0 {
		// Latch the informed state: a node that learns the message
		// mid-step starts forwarding at the next step, keeping the
		// per-step roles fixed as in the paper's analysis.
		dp.wasInformed = dp.informed
	}
	ch := dp.schedule[step]
	if ch < 0 {
		return radio.Action{Kind: radio.Idle}
	}
	if !dp.wasInformed {
		return radio.Action{Kind: radio.Listen, Ch: int(ch)}
	}
	// Back-off broadcast: slot i of the round broadcasts with
	// probability 2^i/2^lgΔ, sweeping contention levels.
	i := int(slotInStep % int64(dp.lgDelta))
	prob := float64(int64(1)<<uint(i)) / float64(int64(1)<<uint(dp.lgDelta))
	if dp.env.Rand.Bernoulli(prob) {
		return radio.Action{Kind: radio.Broadcast, Ch: int(ch), Data: dp.frame}
	}
	return radio.Action{Kind: radio.Idle, Ch: int(ch)}
}

// Observe implements radio.Protocol.
func (dp *dissemProto) Observe(_ int64, msg *radio.Message) {
	if msg == nil {
		dp.observeOutcome(false, nil)
		return
	}
	dp.observeOutcome(true, msg.Data)
}

// observeOutcome is Observe with the delivery already unpacked, shared
// by both dispatch modes (the dissemBank feeds outcomes here).
func (dp *dissemProto) observeOutcome(heard bool, data any) {
	if heard && !dp.informed {
		if dm, ok := data.(dissemMessage); ok {
			dp.informed = true
			dp.informedAt = dp.slot
			dp.msg = dm.Body
			dp.frame = dissemMessage{Body: dm.Body}
		}
	}
	dp.slot++
}

// Done implements radio.Protocol.
func (dp *dissemProto) Done() bool { return dp.slot >= dp.totalSlots() }

// MinDoneSlots implements radio.FixedSchedule: the dissemination
// schedule is fixed-length, so the engine can skip Done polls until it
// ends.
func (dp *dissemProto) MinDoneSlots() int64 { return dp.totalSlots() }
