// Package radio implements the synchronous cognitive-radio network
// model of Section 3 of the paper.
//
// Time is divided into discrete slots. In each slot every node tunes
// its transceiver to one of its c channels (named by a node-local
// label) and either broadcasts, listens, or idles. A listening node u
// hears a message iff exactly one neighbor of u broadcasts on u's
// current channel in that slot; silence and collisions (two or more
// broadcasting neighbors) are indistinguishable — there is no collision
// detection. A broadcasting node "receives" only its own message.
//
// Protocols are written against the Protocol interface and stepped by
// an Engine, one slot at a time on the calling goroutine. Parallelism
// lives a level up: sweeps spread whole runs across workers, and
// every run is deterministic because randomness lives in per-node
// streams.
//
// # Slot anatomy
//
// The engine executes a slot in three phases:
//
//  1. Collect: every live protocol's action is collected — through
//     the protocols' shared range bank or the per-node adapter (see
//     ranged.go) — and its chosen global channel resolved.
//  2. Index: broadcasters are bucketed by global channel into a
//     compact per-slot index — a count per channel plus an intrusive
//     per-channel broadcaster list (O(broadcasters)).
//  3. Resolve/observe: every listener's delivery outcome is resolved,
//     then every live protocol observes its outcome. A listener on a
//     channel with zero broadcasters resolves to silence in O(1); with
//     one broadcaster, via a single O(1)/O(log Δ) adjacency probe;
//     only genuinely contended channels walk the shorter of the
//     channel's broadcaster list and the listener's neighbor list.
//
// After phase 3 the engine feeds reactive jammers (ActivitySink),
// refreshes completion flags, and advances the slot counter.
//
// Topology may be time-varying: a TopologyFeed installed on the
// Network is stepped once per slot before phase 1, mutating the
// engine's private graph.Dynamic view (node churn, link flapping,
// mobility). Down nodes neither
// transmit nor observe. Static runs never construct the view and
// resolve against the shared graph exactly as before.
package radio

import (
	"context"
	"fmt"

	"crn/internal/bitset"
	"crn/internal/chanassign"
	"crn/internal/graph"
)

// NodeID identifies a node (its index in the graph).
type NodeID int32

// Kind enumerates what a node does with its transceiver in one slot.
type Kind uint8

// Transceiver actions. A node does exactly one per slot.
const (
	Idle Kind = iota + 1
	Listen
	Broadcast
)

// Message is a frame delivered by the radio. Data is protocol-defined;
// the engine treats it opaquely.
//
// A *Message handed to Observe or a TraceFunc is only valid for the
// duration of the call: the engine reuses the backing storage for
// later deliveries. Implementations must copy the fields they keep.
type Message struct {
	From NodeID
	Data any
}

// Action is a node's decision for one slot. Ch is a local channel
// label in [0, c); it is ignored for Idle.
type Action struct {
	Kind Kind
	Ch   int
	Data any
}

// Protocol is a node-local state machine driven by the engine.
//
// Each slot the engine calls Act once, resolves the radio, then calls
// Observe exactly once: msg is non-nil iff the node listened and heard
// a message (exactly one broadcasting neighbor on its channel). msg and
// its fields are only valid during the Observe call — the engine
// reuses the Message storage — so protocols keeping a frame must copy
// it. The engine never calls Act again after Done reports true.
type Protocol interface {
	Act(slot int64) Action
	Observe(slot int64, msg *Message)
	Done() bool
}

// FixedSchedule is optionally implemented by protocols whose Done
// cannot report true before a statically known number of observed
// slots. The engine then skips the per-slot Done poll until that many
// slots have elapsed — a measurable saving, since polling is an
// interface call per live node per slot. MinDoneSlots is a lower
// bound on the protocol's lifetime, not necessarily exact: Done is
// still polled every slot once the bound has passed. The method name
// is deliberately distinct from the common TotalSlots schedule
// accessor so protocols opt in explicitly — implementing MinDoneSlots
// asserts that Done() is false whenever fewer than that many slots
// have been observed.
type FixedSchedule interface {
	MinDoneSlots() int64
}

// Stats aggregates engine counters for one run.
type Stats struct {
	// Slots is the number of slots executed.
	Slots int64
	// Broadcasts, Listens and Idles count node-slot actions.
	Broadcasts int64
	Listens    int64
	Idles      int64
	// Deliveries counts messages heard by listeners.
	Deliveries int64
	// Collisions counts listener-slots lost to two or more
	// simultaneously broadcasting neighbors.
	Collisions int64
	// JammedListens counts listener-slots lost to primary users.
	JammedListens int64
	// EdgeAdds and EdgeRemoves count topology mutations a TopologyFeed
	// actually applied. Neither no-op reconciliations nor the feed's
	// first Step on an engine (which re-establishes current state over
	// the freshly cloned base topology) are counted, so the counters
	// reflect model events even across multi-engine pipelines. Zero on
	// static runs.
	EdgeAdds    int64
	EdgeRemoves int64
	// NodeJoins and NodeLeaves count up/down transitions a TopologyFeed
	// applied; DownSlots counts node-slots spent down (neither
	// transmitting nor observing). Zero on static runs.
	NodeJoins  int64
	NodeLeaves int64
	DownSlots  int64
	// PartitionLosses counts listener-slots in which the base (static)
	// topology would have delivered a frame but the current topology
	// did not deliver that frame — deliveries lost to edges churned
	// away (or gained) underneath the protocols. Down nodes do not
	// listen, so their losses show up as DownSlots instead. Zero on
	// static runs.
	PartitionLosses int64
	// Completed reports whether every protocol finished before the
	// slot budget ran out.
	Completed bool
}

// Accumulate adds o's slot and counter fields into s — the helper
// multi-engine pipelines (CGCAST's setup stages plus dissemination)
// use to combine Stats. Completed is left untouched.
func (s *Stats) Accumulate(o Stats) {
	s.Slots += o.Slots
	s.Broadcasts += o.Broadcasts
	s.Listens += o.Listens
	s.Idles += o.Idles
	s.Deliveries += o.Deliveries
	s.Collisions += o.Collisions
	s.JammedListens += o.JammedListens
	s.EdgeAdds += o.EdgeAdds
	s.EdgeRemoves += o.EdgeRemoves
	s.NodeJoins += o.NodeJoins
	s.NodeLeaves += o.NodeLeaves
	s.DownSlots += o.DownSlots
	s.PartitionLosses += o.PartitionLosses
}

// TraceFunc observes every delivery the engine resolves, for debugging
// and the crntrace tool. Within a slot the calls come in ascending
// listener order, all before the slot's first Observe. msg is only
// valid during the call (the engine reuses the storage); copy what you
// keep.
type TraceFunc func(slot int64, listener NodeID, globalCh int32, msg *Message)

// Jammer reports primary-user occupancy per (slot, global channel).
// A frame broadcast on an occupied channel is lost and a listener
// tuned there hears only silence — secondary users cannot use spectrum
// a primary user holds. Implementations must be deterministic.
// internal/spectrum provides standard models.
type Jammer interface {
	Jammed(slot int64, ch int32) bool
}

// ActivitySink is optionally implemented by Jammers that react to
// secondary-user activity (adversarial models). After every slot
// resolves, the engine calls ObserveActivity exactly once with the number of broadcasts per global channel
// for that slot. The slice is a read-only scratch buffer the engine
// reuses — implementations must copy what they keep and must not
// write into it (the engine only re-zeroes the entries it set, so a
// stray write would persist as phantom activity). Because the engine only
// queries Jammed for slots after the latest ObserveActivity call's
// slot, reactive jammers see activity with at least a one-slot delay —
// the adversary can sense, but not react within a slot.
type ActivitySink interface {
	ObserveActivity(slot int64, broadcastsByChannel []int)
}

// TopologyMutator is the engine-side handle a TopologyFeed mutates
// topology through. Mutations apply to the engine's private dynamic
// view (the network's base graph is never touched) and take effect in
// the slot about to execute. Edge mutations keep the resolve fast
// paths' invariants — sorted adjacency and the dense bit matrix —
// updated incrementally; the boolean results report whether anything
// actually changed, so feeds may reconcile desired state
// declaratively and the engine counts only real changes.
type TopologyMutator interface {
	// N returns the node count (topology dynamics never change it).
	N() int
	// NodeUp reports whether the node is currently up.
	NodeUp(u int) bool
	// SetNodeUp sets a node up or down and reports whether the state
	// changed. Down nodes neither transmit nor observe; their
	// protocols freeze on their local clocks until rejoin.
	SetNodeUp(u int, up bool) bool
	// HasEdge reports whether {u, v} is currently an edge.
	HasEdge(u, v int) bool
	// AddEdge inserts {u, v}; no-op (false) when present or invalid.
	AddEdge(u, v int) bool
	// RemoveEdge deletes {u, v}; no-op (false) when absent or invalid.
	RemoveEdge(u, v int) bool
}

// TopologyFeed drives per-slot topology mutation — node churn, link
// flapping, mobility. It mirrors ActivitySink on the input side:
// before each slot resolves, the engine calls Step exactly once, so
// mutations apply between slots and are never interleaved with
// protocol work. Slot s's actions see every mutation Step(s, ·)
// applied; a reactive jammer observing slot s's activity therefore
// senses traffic that already ran on the mutated topology.
//
// Implementations must be deterministic (seed their randomness via
// rng.Split) and, when stateful, run-scoped: callers sharing one
// scenario across concurrent runs install a fresh instance per run
// (internal/dynamics models implement a NewRun constructor the facade
// uses, mirroring spectrum.RunScoped).
type TopologyFeed interface {
	Step(slot int64, mut TopologyMutator)
}

// Network bundles the instance a protocol runs on.
type Network struct {
	Graph  *graph.Graph
	Assign *chanassign.Assignment
	// Jammer optionally models primary users; nil means clear spectrum.
	// A Jammer that also implements ActivitySink receives per-slot
	// activity reports.
	Jammer Jammer
	// Topology optionally makes the topology time-varying: the engine
	// clones Graph into a private mutable view and calls the feed once
	// per slot. nil means the static model of the paper. Graph itself
	// is never mutated.
	Topology TopologyFeed
	// Trace optionally observes every delivery the engine resolves, in
	// ascending listener order within a slot and before the slot's
	// Observe calls; Engine.SetTrace overrides it.
	Trace TraceFunc
}

// Validate checks the graph/assignment pair is consistent.
func (nw *Network) Validate() error {
	if nw.Graph == nil || nw.Assign == nil {
		return fmt.Errorf("radio: network needs both graph and assignment")
	}
	if nw.Graph.N() != nw.Assign.N() {
		return fmt.Errorf("radio: graph has %d nodes, assignment %d", nw.Graph.N(), nw.Assign.N())
	}
	return nil
}

// Engine steps a set of protocols over a network.
// Engines are single-use: construct, Run, inspect stats.
type Engine struct {
	nw        *Network
	protocols []Protocol
	trace     TraceFunc

	// g is the topology the engine resolves against: the network's
	// graph on static runs, the engine's private graph.Dynamic view
	// when a TopologyFeed is installed.
	g *graph.Graph
	// dyn is the mutable topology view (nil on static runs); topo is
	// the installed feed and mut the engine-side mutator handed to it.
	dyn  *graph.Dynamic
	topo TopologyFeed
	mut  TopologyMutator // pre-boxed engineMutator, one boxing per run
	// countTopo gates the Stats mutation counters: false during the
	// feed's first Step on this engine, where feeds re-establish their
	// current state against the freshly cloned base topology (a
	// multi-engine pipeline hands one feed several engines) — those
	// reconciliations set initial conditions rather than model events.
	countTopo bool
	// baseG/baseNbr are the untouched base topology, for the
	// partition-loss counterfactual (nil matrix on huge graphs).
	baseG   *graph.Graph
	baseNbr *bitset.Matrix

	// Per-slot hot state, struct-of-arrays: the collect phase writes
	// one byte (kind), one int32 (globalCh) and — for broadcasters
	// only — one interface word pair (data) per node, and the resolve
	// phase reads them back with unit-stride loads instead of pulling
	// 32-byte Action structs through the cache.
	kind     []Kind
	data     []any   // broadcast payload, valid only for this slot's broadcasters
	globalCh []int32 // resolved global channel per non-idle node
	// state[u] is the node's engine status (nodeLive/nodeDone/nodeDown),
	// folding the old done+up pair into a single byte load on both hot
	// loops. nodeDone dominates nodeDown: a protocol that reports Done
	// stays done across rejoins.
	state []uint8
	// up[u] reports whether node u currently participates; all-true on
	// static runs, driven by the TopologyFeed otherwise. A down node's
	// Act and Observe are not called, so its protocol freezes on its
	// local clock until rejoin.
	up []bool
	// doneAt[u] is the earliest observed-slot count at which protocol
	// u may report Done (from FixedSchedule; 0 when unknown). minDoneAt
	// is the minimum over live protocols, letting refreshDone skip the
	// whole scan during a homogeneous schedule's steady state.
	doneAt    []int64
	minDoneAt int64
	nDone     int
	slot      int64
	stats     Stats

	// Per-slot channel index (the "index" phase): chCount[ch] is the
	// number of broadcasters on global channel ch (zero for channels
	// not in touched), and chHead[ch]/bcastNext thread them into a
	// per-channel list (chHead[ch] is one broadcaster, bcastNext[v]
	// the next, -1 ends the list) built in one pass.
	chCount   []int32
	chHead    []int32
	bcastNext []int32
	touched   []int32
	// bcasters is the collect phase's broadcaster buffer, the index
	// phase's input.
	bcasters []int32

	// Channel bitset rows (nil without a dense adjacency matrix): a
	// channel whose broadcaster count reaches rowMin gets a row of n
	// bits from rowBuf — one bit per broadcaster — so listeners resolve
	// the whole channel with an AND/popcount sweep against their
	// neighbor-matrix row instead of walking broadcaster or neighbor
	// lists. rowOf[ch] is the channel's row index this slot (-1 none);
	// rows are cleared when (re)assigned, so resetIndex only has to
	// reset rowOf and the row cursor.
	rowBuf    []uint64
	rowOf     []int32
	rowStride int
	rowMin    int32
	rowsUsed  int32

	// nbr is the graph's dense adjacency matrix (nil on huge graphs,
	// where the engine binary-searches sorted adjacency instead).
	nbr *bitset.Matrix

	// traceMsg backs every delivery the engine hands to a TraceFunc.
	traceMsg Message

	// bank is the range-ABI dispatch target: the protocols' shared
	// RangeProtocol when every protocol is a view into one (see
	// detectRangeBank), the per-node adapter otherwise. acts and deliv
	// are the range ABI's per-slot scratch, indexed by node. The collect
	// phase records the slot's listeners in listenBuf[:nListen], so
	// resolve visits only them; delivIdx records which nodes resolve
	// delivered into, letting the post-observe reset touch only those
	// entries.
	bank      RangeProtocol
	acts      []Action
	deliv     []Delivery
	delivIdx  []int32
	listenBuf []int32
	nListen   int

	// activity feed for reactive jammers (nil when the jammer is not an
	// ActivitySink): broadcast count per global channel, reused per slot.
	sink     ActivitySink
	activity []int
}

// NewEngine constructs an engine for the given network and per-node
// protocols (len must equal the node count). It finalizes the graph
// (idempotent) so adjacency queries can use the sorted or bit-matrix
// fast paths.
func NewEngine(nw *Network, protocols []Protocol) (*Engine, error) {
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	if len(protocols) != nw.Graph.N() {
		return nil, fmt.Errorf("radio: %d protocols for %d nodes", len(protocols), nw.Graph.N())
	}
	nw.Graph.Finalize()
	n := nw.Graph.N()
	u := nw.Assign.Universe
	e := &Engine{
		nw:        nw,
		protocols: protocols,
		g:         nw.Graph,
		kind:      make([]Kind, n),
		data:      make([]any, n),
		globalCh:  make([]int32, n),
		state:     make([]uint8, n),
		up:        make([]bool, n),
		doneAt:    make([]int64, n),
		chCount:   make([]int32, u),
		chHead:    make([]int32, u),
		bcastNext: make([]int32, n),
		touched:   make([]int32, 0, u),
		bcasters:  make([]int32, 0, n),
		acts:      make([]Action, n),
		deliv:     make([]Delivery, n),
		delivIdx:  make([]int32, n),
		listenBuf: make([]int32, n),
		nbr:       nw.Graph.NeighborMatrix(),
		trace:     nw.Trace,
	}
	for i := range e.chHead {
		e.chHead[i] = -1
	}
	for i := range e.up {
		e.up[i] = true
	}
	if nw.Topology != nil {
		// Dynamic topology: resolve against a private mutable clone so
		// the shared base graph stays immutable, and keep the base for
		// the partition-loss counterfactual.
		e.topo = nw.Topology
		e.dyn = graph.NewDynamic(nw.Graph)
		e.g = e.dyn.Graph()
		e.nbr = e.g.NeighborMatrix()
		e.baseG = nw.Graph
		e.baseNbr = nw.Graph.NeighborMatrix()
		e.mut = engineMutator{e}
	}
	e.initChannelRows(n, u)
	e.minDoneAt = -1
	for i, p := range protocols {
		// FixedSchedule bounds are in observed slots; under a dynamic
		// topology a down node observes nothing, so the bounds no
		// longer map onto engine slots and the Done-poll skip is
		// disabled (doneAt stays 0 — Done is simply polled every slot).
		if e.topo == nil {
			if fs, ok := p.(FixedSchedule); ok {
				e.doneAt[i] = fs.MinDoneSlots()
			}
		}
		if e.minDoneAt < 0 || e.doneAt[i] < e.minDoneAt {
			e.minDoneAt = e.doneAt[i]
		}
	}
	if sink, ok := nw.Jammer.(ActivitySink); ok {
		e.sink = sink
		e.activity = make([]int, u)
	}
	e.bank = detectRangeBank(protocols)
	if e.bank == nil {
		e.bank = &nodeBank{protocols: protocols}
	}
	// resolve keeps From=-1 as the steady-state content of every deliv
	// entry, writing (and afterwards resetting) only actual deliveries.
	for i := range e.deliv {
		e.deliv[i].From = -1
	}
	return e, nil
}

// Node engine states, one byte per node on the hot loops. nodeDone
// dominates nodeDown: Done is terminal, so a done node that rejoins
// stays done.
const (
	nodeLive uint8 = iota
	nodeDone
	nodeDown
)

// initChannelRows sizes the channel bitset-row pool. Rows exist only
// when the graph affords a dense adjacency matrix; a channel earns a
// row once rowMin broadcasters land on it in a slot, and at most
// n/rowMin channels can do that, which bounds the pool.
func (e *Engine) initChannelRows(n, universe int) {
	// rowOf always exists (all -1) so the resolve loop needs no nil
	// check; rowBuf stays nil when the graph has no dense matrix, and
	// buildIndex never claims a row then.
	e.rowOf = make([]int32, universe)
	for i := range e.rowOf {
		e.rowOf[i] = -1
	}
	if e.nbr == nil {
		return
	}
	e.rowStride = e.nbr.Stride()
	// The walk path costs ~min(count, degree) dependent probes, the
	// row path ~stride sequential word ops; rows start paying for
	// themselves once a channel has a couple of broadcasters, except
	// on huge graphs where a row sweep reads stride words per
	// listener and the bar is proportionally higher.
	e.rowMin = int32(max(2, e.rowStride/4))
	maxRows := n/int(e.rowMin) + 1
	if maxRows > universe {
		maxRows = universe
	}
	e.rowBuf = make([]uint64, maxRows*e.rowStride)
}

// engineMutator is the TopologyMutator the engine hands its feed.
type engineMutator struct{ e *Engine }

func (m engineMutator) N() int { return len(m.e.protocols) }

func (m engineMutator) NodeUp(u int) bool {
	return u >= 0 && u < len(m.e.up) && m.e.up[u]
}

func (m engineMutator) SetNodeUp(u int, up bool) bool {
	if u < 0 || u >= len(m.e.up) || m.e.up[u] == up {
		return false
	}
	m.e.up[u] = up
	if m.e.state[u] != nodeDone {
		if up {
			m.e.state[u] = nodeLive
		} else {
			m.e.state[u] = nodeDown
		}
	}
	if m.e.countTopo {
		if up {
			m.e.stats.NodeJoins++
		} else {
			m.e.stats.NodeLeaves++
		}
	}
	return true
}

func (m engineMutator) HasEdge(u, v int) bool { return m.e.dyn.HasEdge(u, v) }

func (m engineMutator) AddEdge(u, v int) bool {
	if !m.e.dyn.AddEdge(u, v) {
		return false
	}
	if m.e.countTopo {
		m.e.stats.EdgeAdds++
	}
	return true
}

func (m engineMutator) RemoveEdge(u, v int) bool {
	if !m.e.dyn.RemoveEdge(u, v) {
		return false
	}
	if m.e.countTopo {
		m.e.stats.EdgeRemoves++
	}
	return true
}

// applyTopology runs the feed for the slot about to execute, before
// the collect phase, so mutations are never interleaved with protocol
// work. Mutations applied during
// the feed's first Step on this engine are not counted in Stats —
// they re-establish the feed's current state over the fresh clone
// (see countTopo); everything after is a model event.
func (e *Engine) applyTopology() {
	if e.topo == nil {
		return
	}
	e.topo.Step(e.slot, e.mut)
	e.countTopo = true
}

// SetTrace installs a delivery trace callback (nil to disable).
func (e *Engine) SetTrace(fn TraceFunc) { e.trace = fn }

// Slot returns the number of slots executed so far.
func (e *Engine) Slot() int64 { return e.slot }

// Stats returns counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// Run executes slots sequentially until every protocol reports Done or
// maxSlots have elapsed. It can be called again to continue a run with
// a larger budget.
func (e *Engine) Run(maxSlots int64) Stats {
	return e.RunUntil(maxSlots, nil)
}

// RunUntil executes slots sequentially like Run but additionally stops
// as soon as stop returns true (checked after each slot). Harnesses use
// it to measure time-to-goal for protocols whose own schedules are
// fixed-length (e.g. "slots until every node knows all neighbors").
func (e *Engine) RunUntil(maxSlots int64, stop func(slot int64) bool) Stats {
	st, _ := e.RunUntilCtx(context.Background(), maxSlots, stop)
	return st
}

// RunUntilCtx is RunUntil with cooperative cancellation: the context is
// polled every ctxCheckMask+1 slots (slots are sub-microsecond, so
// cancellation still lands within microseconds), and a cancelled run
// returns the stats accumulated so far together with ctx.Err(). A nil
// ctx means context.Background(). This is the cancellation point every
// facade primitive and the sweep engine thread their contexts down to.
func (e *Engine) RunUntilCtx(ctx context.Context, maxSlots int64, stop func(slot int64) bool) (Stats, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for e.slot < maxSlots && e.nDone < len(e.protocols) {
		if done != nil && e.slot&ctxCheckMask == 0 {
			select {
			case <-done:
				e.stats.Completed = false
				return e.stats, ctx.Err()
			default:
			}
		}
		e.step()
		e.slot++
		e.stats.Slots = e.slot
		if stop != nil && stop(e.slot) {
			break
		}
	}
	e.stats.Completed = e.nDone == len(e.protocols)
	return e.stats, nil
}

// ctxCheckMask spaces out the engine's cancellation polls: a
// non-blocking channel select costs tens of nanoseconds, which is
// comparable to a small slot, so polling every slot taxes the hot
// loop measurably. Polling every 16th slot keeps cancellation latency
// in the microseconds while making the poll cost invisible.
const ctxCheckMask = 15

// step runs one full slot through the collect → index →
// resolve/observe core.
func (e *Engine) step() {
	e.applyTopology()
	e.bcasters = e.collect(e.bcasters[:0])
	e.buildIndex(e.bcasters)
	e.resolve()
	e.feedActivity()
	e.resetIndex()
	e.refreshDone()
}

// feedActivity reports the slot's broadcast counts per global channel
// to a reactive jammer, after the slot resolves and before the next
// slot's Jammed queries. The activity slice is
// zero outside the call: touched entries are filled from the channel
// index and cleared again afterwards, so the cost is O(active
// channels), not O(universe).
func (e *Engine) feedActivity() {
	if e.sink == nil {
		return
	}
	for _, ch := range e.touched {
		e.activity[ch] = int(e.chCount[ch])
	}
	e.sink.ObserveActivity(e.slot, e.activity)
	for _, ch := range e.touched {
		e.activity[ch] = 0
	}
}

// buildIndex buckets this slot's broadcasters by global channel: the
// index phase. One pass over the collect phase's broadcaster ids
// threads each into its channel's list; it runs between the collect
// and resolve phases, costs O(broadcasters), and allocates nothing
// (all scratch is engine-owned and pre-sized).
func (e *Engine) buildIndex(bcasters []int32) {
	// Hoist the index slices into locals: the touched append mutates
	// an engine field, so without these the compiler must assume
	// aliasing and reload every slice header per broadcaster.
	rowMin := e.rowMin
	stride := e.rowStride
	globalCh := e.globalCh
	chHead := e.chHead
	chCount := e.chCount
	bcastNext := e.bcastNext
	rowBuf := e.rowBuf
	rowOf := e.rowOf
	touched := e.touched
	for _, u := range bcasters {
		ch := globalCh[u]
		head := chHead[ch]
		if head < 0 {
			touched = append(touched, ch)
		}
		bcastNext[u] = head
		chHead[ch] = u
		cnt := chCount[ch] + 1
		chCount[ch] = cnt
		if rowBuf == nil || cnt < rowMin {
			continue
		}
		// Dense channel: maintain its bitset row. The first
		// broadcaster to reach rowMin claims a row from the pool,
		// clears it and back-fills everyone threaded so far; later
		// broadcasters set their own bit.
		ri := rowOf[ch]
		if cnt == rowMin {
			ri = e.rowsUsed
			e.rowsUsed++
			rowOf[ch] = ri
			row := rowBuf[int(ri)*stride : (int(ri)+1)*stride]
			clear(row)
			for v := int32(u); v >= 0; v = bcastNext[v] {
				row[v>>6] |= 1 << (uint(v) & 63)
			}
			continue
		}
		rowBuf[int(ri)*stride+int(u>>6)] |= 1 << (uint(u) & 63)
	}
	e.touched = touched
}

// resetIndex clears the per-slot channel index, touching only the
// channels that were active. Rows are cleared lazily on reassignment,
// so only the channel→row map needs resetting here.
func (e *Engine) resetIndex() {
	for _, ch := range e.touched {
		e.chCount[ch] = 0
		e.chHead[ch] = -1
		e.rowOf[ch] = -1
	}
	e.touched = e.touched[:0]
	e.rowsUsed = 0
}

// baseAdjacent is adjacent against the untouched base topology, for
// the partition-loss counterfactual. Only called when a TopologyFeed
// is installed.
func (e *Engine) baseAdjacent(u int, v int32) bool {
	if e.baseNbr != nil {
		return e.baseNbr.Get(u, int(v))
	}
	return e.baseG.Adjacent(u, int(v))
}

// sameAsBase reports whether listener u's current adjacency row equals
// its base-topology row, in which case the partition-loss
// counterfactual cannot differ from the real resolution (same
// broadcasters, same adjacency) and is skipped. Requires dense
// matrices on both views; huge graphs always run the counterfactual.
func (e *Engine) sameAsBase(u int) bool {
	if e.nbr == nil || e.baseNbr == nil {
		return false
	}
	return bitset.EqualWords(e.nbr.Row(u), e.baseNbr.Row(u))
}

// refreshDone updates completion flags after a slot resolves. At this
// point e.slot is still the index of the slot just executed, so every
// live protocol has observed e.slot+1 slots; protocols that declared a
// FixedSchedule bound beyond that cannot be done yet and are skipped
// without the interface call — including the whole scan while the
// bound of every live protocol lies in the future.
func (e *Engine) refreshDone() {
	observed := e.slot + 1
	if observed < e.minDoneAt {
		return
	}
	min := int64(-1)
	for u, p := range e.protocols {
		if e.state[u] == nodeDone {
			continue
		}
		if observed >= e.doneAt[u] && p.Done() {
			e.state[u] = nodeDone
			e.nDone++
			continue
		}
		if min < 0 || e.doneAt[u] < min {
			min = e.doneAt[u]
		}
	}
	e.minDoneAt = min
}
