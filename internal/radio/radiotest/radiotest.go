// Package radiotest checks radio.Engine against a naive oracle of the
// paper's delivery rule (Section 3): a listener hears a frame iff
// exactly one neighbor broadcasts on its channel.
//
// Run wraps every protocol, the network's Jammer, TopologyFeed and
// Trace in recorders, runs the engine, and after every slot
// re-resolves that slot from what was recorded — the actions the
// protocols chose, the topology mutations the feed applied, the
// jammer's answers — by a plain scan over the oracle's own adjacency
// matrix. It then compares each node's observed outcome, the slot's
// ordered trace deliveries, the per-channel activity handed to a
// reactive jammer and, at the end, every Stats field. The oracle
// shares no code with the kernel: no channel index, no bitset rows, no
// graph.Dynamic.
//
// Protocols that are views into one shared range bank stay on range
// dispatch (the bank itself is wrapped), so both of the engine's
// dispatch paths — the protocols' own bank and its per-node adapter —
// are checked. The oracle keeps an n×n matrix per topology, so it is
// meant for test-sized networks.
package radiotest

import (
	"fmt"
	"reflect"

	"crn/internal/radio"
)

// Run steps protocols on nw with a radio.Engine for up to maxSlots
// slots, checking every slot against the oracle. It returns the
// engine's stats and the first disagreement (nil when the engine and
// the oracle agree on everything). nw itself is not modified.
func Run(nw *radio.Network, protocols []radio.Protocol, maxSlots int64) (radio.Stats, error) {
	if err := nw.Validate(); err != nil {
		return radio.Stats{}, err
	}
	o := newOracle(nw, protocols)
	e, err := radio.NewEngine(o.network(nw), o.wrapped)
	if err != nil {
		return radio.Stats{}, err
	}
	st := e.RunUntil(maxSlots, func(slot int64) bool {
		o.checkSlot()
		o.slot = slot
		return o.err != nil
	})
	if o.err != nil {
		return st, o.err
	}
	want := o.stats
	want.Slots = o.slot
	want.Completed = true
	for _, d := range o.doneAt {
		if d < 0 {
			want.Completed = false
		}
	}
	if st != want {
		return st, fmt.Errorf("stats:\n engine %+v\n oracle %+v", st, want)
	}
	return st, nil
}

// oracle is the naive model plus the recorders' per-slot capture.
type oracle struct {
	nw      *radio.Network
	n       int
	wrapped []radio.Protocol
	bank    *recBank

	slot  int64 // the slot being executed
	stats radio.Stats
	err   error

	// Topology model: up state and adjacency matrices, current and
	// base. Mutations apply as the feed makes them; countTopo is false
	// during the feed's first Step, whose reconciliations the engine
	// does not count.
	dynamic   bool
	up        []bool
	cur, base [][]bool
	countTopo bool

	// doneAt[u] is the slot after which the engine first saw Done()
	// true (-1: not yet); the node is not stepped after it.
	doneAt []int64

	// Per-slot capture, reset by checkSlot.
	acted    []bool
	act      []radio.Action
	observed []bool
	heard    []radio.Delivery
	traces   []traceEvent
	jam      map[int32]bool
	activity []int // nil until ObserveActivity reports the slot
	tracing  bool
	sink     bool

	live   []bool
	counts []int // scratch: broadcasts per global channel
}

type traceEvent struct {
	listener radio.NodeID
	ch       int32
	from     radio.NodeID
	data     any
}

func newOracle(nw *radio.Network, protocols []radio.Protocol) *oracle {
	n := nw.Graph.N()
	o := &oracle{
		nw:       nw,
		n:        n,
		dynamic:  nw.Topology != nil,
		up:       make([]bool, n),
		cur:      adjacency(nw),
		base:     adjacency(nw),
		doneAt:   make([]int64, n),
		acted:    make([]bool, n),
		act:      make([]radio.Action, n),
		observed: make([]bool, n),
		heard:    make([]radio.Delivery, n),
		jam:      make(map[int32]bool),
		tracing:  nw.Trace != nil,
		live:     make([]bool, n),
		counts:   make([]int, nw.Assign.Universe),
	}
	for u := range o.up {
		o.up[u] = true
		o.doneAt[u] = -1
	}
	o.wrapped = make([]radio.Protocol, len(protocols))
	if b := sharedBank(protocols); b != nil {
		o.bank = &recBank{o: o, inner: b}
	}
	for u, p := range protocols {
		o.wrapped[u] = &node{o: o, u: u, inner: p}
	}
	return o
}

// adjacency builds an n×n neighbor matrix from the base graph.
func adjacency(nw *radio.Network) [][]bool {
	n := nw.Graph.N()
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
		for _, v := range nw.Graph.Neighbors(u) {
			adj[u][v] = true
		}
	}
	return adj
}

// sharedBank mirrors the engine's detection rule: the bank iff every
// protocol is a view into one bank at its own index.
func sharedBank(protocols []radio.Protocol) radio.RangeProtocol {
	var bank radio.RangeProtocol
	for u, p := range protocols {
		rn, ok := p.(radio.RangeNode)
		if !ok {
			return nil
		}
		b, i := rn.RangeBank()
		if b == nil || i != u || (u > 0 && b != bank) {
			return nil
		}
		bank = b
	}
	return bank
}

// network returns a copy of nw with the jammer, feed and trace wrapped
// in recorders.
func (o *oracle) network(nw *radio.Network) *radio.Network {
	w := *nw
	if nw.Jammer != nil {
		j := &recJammer{o: o, inner: nw.Jammer}
		w.Jammer = j
		if s, ok := nw.Jammer.(radio.ActivitySink); ok {
			o.sink = true
			w.Jammer = &recSinkJammer{recJammer: j, sink: s}
		}
	}
	if nw.Topology != nil {
		w.Topology = &recFeed{o: o, inner: nw.Topology}
	}
	if nw.Trace != nil {
		inner := nw.Trace
		w.Trace = func(slot int64, listener radio.NodeID, ch int32, msg *radio.Message) {
			o.checkClock("trace", slot)
			o.traces = append(o.traces, traceEvent{listener, ch, msg.From, msg.Data})
			inner(slot, listener, ch, msg)
		}
	}
	return &w
}

func (o *oracle) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf("slot %d: "+format, append([]any{o.slot}, args...)...)
	}
}

func (o *oracle) checkClock(what string, slot int64) {
	if slot != o.slot {
		o.fail("%s called for slot %d", what, slot)
	}
}

func (o *oracle) recordAct(u int, a radio.Action) {
	if o.acted[u] {
		o.fail("node %d acted twice", u)
	}
	o.acted[u] = true
	o.act[u] = a
}

func (o *oracle) recordObserve(u int, d radio.Delivery) {
	if !o.acted[u] || o.observed[u] {
		o.fail("node %d observed without a matching act (acted=%v, observed=%v)", u, o.acted[u], o.observed[u])
	}
	o.observed[u] = true
	o.heard[u] = d
}

// checkSlot re-resolves the slot just executed from its capture and
// compares every outcome, then resets the capture.
func (o *oracle) checkSlot() {
	s := o.slot
	a := o.nw.Assign
	clear(o.counts)
	for u := 0; u < o.n; u++ {
		done := o.doneAt[u] >= 0 && o.doneAt[u] < s
		o.live[u] = o.up[u] && !done
		if !o.up[u] && !done {
			o.stats.DownSlots++
		}
		if o.acted[u] != o.live[u] || o.observed[u] != o.live[u] {
			o.fail("node %d acted=%v observed=%v, oracle live=%v (up=%v done=%v)",
				u, o.acted[u], o.observed[u], o.live[u], o.up[u], done)
			return
		}
		if !o.live[u] {
			continue
		}
		switch act := o.act[u]; act.Kind {
		case radio.Idle:
			o.stats.Idles++
		case radio.Listen:
			o.stats.Listens++
		case radio.Broadcast:
			o.stats.Broadcasts++
			o.counts[a.Global(u, act.Ch)]++
		default:
			o.fail("node %d chose invalid action kind %d", u, act.Kind)
			return
		}
	}
	var want []traceEvent
	for u := 0; u < o.n; u++ {
		if !o.live[u] {
			continue
		}
		exp := radio.Delivery{From: -1}
		if act := o.act[u]; act.Kind == radio.Listen {
			ch := a.Global(u, act.Ch)
			if ev, ok := o.resolve(u, ch); ok {
				exp = radio.Delivery{From: ev.from, Data: ev.data}
				want = append(want, ev)
			}
		}
		got := o.heard[u]
		if got.From != exp.From || (exp.From >= 0 && !reflect.DeepEqual(got.Data, exp.Data)) {
			o.fail("node %d observed %+v, oracle %+v", u, got, exp)
			return
		}
	}
	if o.tracing {
		if len(o.traces) != len(want) {
			o.fail("%d trace events, oracle %d deliveries", len(o.traces), len(want))
			return
		}
		for i, ev := range want {
			if got := o.traces[i]; got.listener != ev.listener || got.ch != ev.ch || got.from != ev.from || !reflect.DeepEqual(got.data, ev.data) {
				o.fail("trace event %d is %+v, oracle %+v", i, got, ev)
				return
			}
		}
	}
	if o.sink {
		if o.activity == nil {
			o.fail("no activity report")
			return
		}
		for ch, c := range o.counts {
			if o.activity[ch] != c {
				o.fail("activity on channel %d is %d, oracle %d", ch, o.activity[ch], c)
				return
			}
		}
	}
	clear(o.acted)
	clear(o.observed)
	clear(o.jam)
	o.traces = o.traces[:0]
	o.activity = nil
}

// resolve applies the delivery rule to live listener u on global
// channel ch by scanning every other node, counting the slot's stats.
// It reports the delivery, if any.
func (o *oracle) resolve(u int, ch int32) (traceEvent, bool) {
	if o.nw.Jammer != nil {
		jammed, asked := o.jam[ch]
		if !asked {
			o.fail("listener %d on channel %d resolved without a jammer query", u, ch)
			return traceEvent{}, false
		}
		if jammed {
			o.stats.JammedListens++
			return traceEvent{}, false
		}
	}
	talkers, from := o.scan(o.cur, u, ch)
	if o.dynamic {
		baseTalkers, baseFrom := o.scan(o.base, u, ch)
		if baseTalkers == 1 && (talkers != 1 || from != baseFrom) {
			o.stats.PartitionLosses++
		}
	}
	switch {
	case talkers == 1:
		o.stats.Deliveries++
		return traceEvent{radio.NodeID(u), ch, radio.NodeID(from), o.act[from].Data}, true
	case talkers > 1:
		o.stats.Collisions++
	}
	return traceEvent{}, false
}

// scan counts u's live neighbors (in adj) broadcasting on global
// channel ch, returning the count and the first such neighbor.
func (o *oracle) scan(adj [][]bool, u int, ch int32) (int, int) {
	talkers, from := 0, -1
	for v := 0; v < o.n; v++ {
		if !adj[u][v] || !o.live[v] || o.act[v].Kind != radio.Broadcast || o.nw.Assign.Global(v, o.act[v].Ch) != ch {
			continue
		}
		talkers++
		if from < 0 {
			from = v
		}
	}
	return talkers, from
}

// node wraps one protocol, recording its actions, outcomes and Done.
type node struct {
	o     *oracle
	u     int
	inner radio.Protocol
}

func (p *node) Act(slot int64) radio.Action {
	p.o.checkClock("Act", slot)
	a := p.inner.Act(slot)
	p.o.recordAct(p.u, a)
	return a
}

func (p *node) Observe(slot int64, msg *radio.Message) {
	p.o.checkClock("Observe", slot)
	d := radio.Delivery{From: -1}
	if msg != nil {
		d = radio.Delivery{From: msg.From, Data: msg.Data}
	}
	p.o.recordObserve(p.u, d)
	p.inner.Observe(slot, msg)
}

func (p *node) Done() bool {
	done := p.inner.Done()
	if done && p.o.doneAt[p.u] < 0 {
		p.o.doneAt[p.u] = p.o.slot
	}
	return done
}

// MinDoneSlots forwards the inner protocol's FixedSchedule bound (0,
// "unknown", when it has none) so the engine's Done-poll skip stays
// exercised.
func (p *node) MinDoneSlots() int64 {
	if fs, ok := p.inner.(radio.FixedSchedule); ok {
		return fs.MinDoneSlots()
	}
	return 0
}

func (p *node) RangeBank() (radio.RangeProtocol, int) {
	if p.o.bank == nil {
		return nil, 0
	}
	return p.o.bank, p.u
}

// recBank wraps the protocols' shared bank, recording whole ranges.
type recBank struct {
	o     *oracle
	inner radio.RangeProtocol
}

func (b *recBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	b.o.checkClock("ActRange", slot)
	b.inner.ActRange(slot, lo, hi, acts)
	for u := lo; u < hi; u++ {
		b.o.recordAct(u, acts[u])
	}
}

func (b *recBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	b.o.checkClock("ObserveRange", slot)
	for u := lo; u < hi; u++ {
		d := deliveries[u]
		if d.From < 0 {
			d = radio.Delivery{From: -1}
		}
		b.o.recordObserve(u, d)
	}
	b.inner.ObserveRange(slot, lo, hi, deliveries)
}

// recJammer records every Jammed answer of the slot.
type recJammer struct {
	o     *oracle
	inner radio.Jammer
}

func (j *recJammer) Jammed(slot int64, ch int32) bool {
	j.o.checkClock("Jammed", slot)
	ans := j.inner.Jammed(slot, ch)
	if prev, ok := j.o.jam[ch]; ok && prev != ans {
		j.o.fail("jammer answered %v then %v for channel %d", prev, ans, ch)
	}
	j.o.jam[ch] = ans
	return ans
}

// recSinkJammer is recJammer for a reactive jammer: it also records
// the activity report.
type recSinkJammer struct {
	*recJammer
	sink radio.ActivitySink
}

func (j *recSinkJammer) ObserveActivity(slot int64, byChannel []int) {
	j.o.checkClock("ObserveActivity", slot)
	if j.o.activity != nil {
		j.o.fail("second activity report")
	}
	j.o.activity = append([]int(nil), byChannel...)
	j.sink.ObserveActivity(slot, byChannel)
}

// recFeed applies every mutation the feed makes to the oracle's model
// as well, predicting whether it changes anything.
type recFeed struct {
	o     *oracle
	inner radio.TopologyFeed
}

func (f *recFeed) Step(slot int64, mut radio.TopologyMutator) {
	f.o.checkClock("TopologyFeed.Step", slot)
	f.inner.Step(slot, recMutator{f.o, mut})
	f.o.countTopo = true
}

type recMutator struct {
	o   *oracle
	mut radio.TopologyMutator
}

func (m recMutator) valid(u int) bool { return u >= 0 && u < m.o.n }

func (m recMutator) N() int {
	if n := m.mut.N(); n != m.o.n {
		m.o.fail("mutator N() = %d, want %d", n, m.o.n)
	}
	return m.o.n
}

func (m recMutator) NodeUp(u int) bool {
	got := m.mut.NodeUp(u)
	if want := m.valid(u) && m.o.up[u]; got != want {
		m.o.fail("NodeUp(%d) = %v, oracle %v", u, got, want)
	}
	return got
}

func (m recMutator) SetNodeUp(u int, up bool) bool {
	got := m.mut.SetNodeUp(u, up)
	want := m.valid(u) && m.o.up[u] != up
	if got != want {
		m.o.fail("SetNodeUp(%d, %v) = %v, oracle %v", u, up, got, want)
	}
	if !want {
		return got
	}
	m.o.up[u] = up
	if m.o.countTopo {
		if up {
			m.o.stats.NodeJoins++
		} else {
			m.o.stats.NodeLeaves++
		}
	}
	return got
}

func (m recMutator) HasEdge(u, v int) bool {
	got := m.mut.HasEdge(u, v)
	if want := m.valid(u) && m.valid(v) && m.o.cur[u][v]; got != want {
		m.o.fail("HasEdge(%d, %d) = %v, oracle %v", u, v, got, want)
	}
	return got
}

func (m recMutator) AddEdge(u, v int) bool { return m.setEdge(u, v, true, m.mut.AddEdge(u, v)) }

func (m recMutator) RemoveEdge(u, v int) bool { return m.setEdge(u, v, false, m.mut.RemoveEdge(u, v)) }

// setEdge checks an edge mutation's reported change against the model
// and applies it: self-loops, out-of-range endpoints and edges already
// in the requested state are no-ops.
func (m recMutator) setEdge(u, v int, on, got bool) bool {
	want := u != v && m.valid(u) && m.valid(v) && m.o.cur[u][v] != on
	if got != want {
		m.o.fail("edge {%d,%d} set %v reported %v, oracle %v", u, v, on, got, want)
	}
	if !want {
		return got
	}
	m.o.cur[u][v], m.o.cur[v][u] = on, on
	if m.o.countTopo {
		if on {
			m.o.stats.EdgeAdds++
		} else {
			m.o.stats.EdgeRemoves++
		}
	}
	return got
}
