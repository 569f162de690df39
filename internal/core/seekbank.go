package core

import (
	"math"

	"crn/internal/radio"
	"crn/internal/rng"
)

// SeekBank holds the CSEEK/CKSEEK state of every member node in flat
// slices indexed by bank position, and steps all of them as one
// radio.RangeProtocol (discovery, and CGCAST's exchange stages). The
// members' *CSeek views forward per-node Act/Observe calls into the
// same state machine, so both dispatch modes run identical code.
//
// # Cohort
//
// CSEEK runs in steps: within a step a node's channel and role are
// fixed, and every node walks the same COUNT round schedule. Nodes
// stepped in every slot since the run began form the cohort, which
// shares one seekCursor (part, step slot, COUNT round, local slot).
// Each step the bank splits the cohort into a listener list and a
// broadcaster list: ActRange writes the listeners' Listen actions and
// draws coins only for broadcasters, ObserveRange visits only the
// listeners, and round and step boundaries are applied once per slot
// for the whole cohort (settle).
//
// A slot's cohort work is closed lazily: the bank cannot tell which
// act or observe call of a slot is the last, so the first act call of
// the next slot — one that does not continue the current slot's
// ascending sweep — or any state accessor (Done, Counts, ChannelAt)
// settles it first. Every node draws from its own stream, so closing
// a step at the next slot's start instead of at its last observe
// leaves each node's draw order unchanged.
//
// # Laggers
//
// Under a topology feed a down node is not stepped, and its local
// clock freezes. A cohort member found unstepped when a slot settles
// leaves the cohort for good: it becomes a lagger with its own copy of
// the cursor, stepped on its own clock by the same per-node helpers
// (beginStep, endRound, addCount) the cohort uses.
//
// # Clocks
//
// FirstHeard and ChannelAt speak the node's local clock (slots it has
// been stepped). The engine clock is the slot argument of Act/Observe:
// first-heard records keep both, and recording nodes keep slotMarks —
// the (engine, local) pairs at which their stepping resumed after a
// gap — so ChannelAtEngine can map an engine slot onto the local one.
type SeekBank struct {
	sched seekSchedule
	c     int // channels per node (the width of a counts row)
	delta int // Δ, the capacity of each node's first-heard records

	// Hot per-node state.
	rands    []*rng.Source
	ch       []int32  // the current step's local channel
	listener []bool   // the current step's role
	p2bits   []uint64 // part-two back-off: bit i = broadcast in step slot i
	counts   []int64  // n×c; row u holds node u's part-one densities
	nodes    []seekNode

	// The cohort: its shared cursor, its members (ascending), and this
	// step's split of them by role. laggers lists the rest.
	cur         seekCursor
	cohort      []int32
	listeners   []int32
	bcasters    []int32
	laggers     []int32
	cohortLast  int64      // the last engine slot the cohort was stepped in
	cohortMarks []slotMark // kept only when some member records channels
	recording   bool

	// The open slot: pendSlot is its engine slot, cov the node ranges
	// acted in it so far, nextLo the end of the last one.
	pending  bool
	pendSlot int64
	nextLo   int
	cov      []span
}

var _ radio.RangeProtocol = (*SeekBank)(nil)

// seekNode is one member's per-node state off the per-slot path.
type seekNode struct {
	heard    []heardRec // ascending id; capacity Δ up front
	heardIn  int32      // messages heard in the current COUNT round
	distinct int32      // distinct ids heard in the current part-one step
	estimate int64      // the step's adopted COUNT estimate, 0 = none yet
	countSum int64
	chLog    []int32 // the channel of every step begun, nil unless recording

	// A lagger's own cursor, the engine slot it was last stepped in,
	// and (when recording) its clock marks.
	lagging bool
	cur     seekCursor
	last    int64
	marks   []slotMark
}

// heardRec is the first-heard record of one identity.
type heardRec struct {
	id radio.NodeID
	// step is 1 + the last part-one step the id was heard in, so COUNT's
	// no-trigger fallback counts each id once per step.
	step   int32
	local  int64
	engine int64
}

// slotMark says the node was at local slot local in engine slot
// engine, after which it was stepped in consecutive slots until the
// next mark (or its current local slot).
type slotMark struct{ engine, local int64 }

// span is a node range [lo, hi) acted in the open slot.
type span struct{ lo, hi int }

// noSlot is the engine slot "before the run": no slot follows it.
const noSlot = math.MinInt64 / 2

// search returns the position of id in the node's records, or where it
// would be inserted.
func (nd *seekNode) search(id radio.NodeID) int {
	lo, hi := 0, len(nd.heard)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nd.heard[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (nd *seekNode) find(id radio.NodeID) *heardRec {
	if i := nd.search(id); i < len(nd.heard) && nd.heard[i].id == id {
		return &nd.heard[i]
	}
	return nil
}

// soloSeek backs the one-member bank NewCSeek builds in a single
// allocation (plus the counts row).
type soloSeek struct {
	bank     SeekBank
	view     CSeek
	rands    [1]*rng.Source
	ch       [1]int32
	listener [1]bool
	p2bits   [1]uint64
	nodes    [1]seekNode
	lists    [4]int32
	cov      [1]span
}

func newSoloSeek(sched seekSchedule, c, delta int, r *rng.Source) *CSeek {
	s := &soloSeek{}
	b := &s.bank
	b.sched, b.c, b.delta = sched, c, delta
	s.view.bank = b
	s.rands[0] = r
	b.rands, b.ch, b.listener, b.p2bits, b.nodes = s.rands[:], s.ch[:], s.listener[:], s.p2bits[:], s.nodes[:]
	b.counts = make([]int64, c)
	b.cohort, b.listeners, b.bcasters, b.laggers = s.lists[0:0:1], s.lists[1:1:2], s.lists[2:2:3], s.lists[3:3:4]
	b.cov = s.cov[:0]
	b.start()
	return &s.view
}

// start puts every member at the schedule's first step.
func (b *SeekBank) start() {
	b.cur = seekCursor{kind: partOne}
	if b.sched.p1Steps == 0 {
		b.cur.kind = partTwo
	}
	b.cohortLast = noSlot
	for u := range b.nodes {
		b.beginStep(u, b.cur.kind)
		b.cohort = append(b.cohort, int32(u))
	}
	b.splitRoles()
}

// NewSeekBank merges fresh (never stepped) CSEEK/CKSEEK machines into
// one shared bank and repoints their views at it; a machine's position
// in nodes becomes its bank index. The machines must share one
// schedule (same Params, same constructor); NewSeekBank panics on a
// stepped machine or a schedule mismatch.
func NewSeekBank(nodes []*CSeek) *SeekBank {
	n := len(nodes)
	if n == 0 {
		return &SeekBank{cur: seekCursor{kind: finished}}
	}
	first := nodes[0].bank
	b := &SeekBank{sched: first.sched, c: first.c, delta: first.delta, cur: first.cur, cohortLast: noSlot}
	c := b.c
	lists := make([]int32, 5*n)
	b.ch = lists[:n:n]
	b.cohort, b.listeners = lists[n:n:2*n], lists[2*n:2*n:3*n]
	b.bcasters, b.laggers = lists[3*n:3*n:4*n], lists[4*n:4*n:5*n]
	b.listener = make([]bool, n)
	b.p2bits = make([]uint64, n)
	b.rands = make([]*rng.Source, n)
	b.nodes = make([]seekNode, n)
	b.counts = make([]int64, n*c)
	b.cov = make([]span, 0, n)
	heard := make([]heardRec, n*b.delta)
	for i, s := range nodes {
		old, j := s.bank, s.idx
		if old.pending || old.cur.slot != 0 || old.nodes[j].lagging {
			panic("core: NewSeekBank needs machines that have not been stepped")
		}
		if old.c != c || !old.sched.sameLayout(&b.sched) {
			panic("core: NewSeekBank needs machines with one schedule")
		}
		b.rands[i] = old.rands[j]
		b.ch[i] = old.ch[j]
		b.listener[i] = old.listener[j]
		b.p2bits[i] = old.p2bits[j]
		copy(b.counts[i*c:(i+1)*c], old.countsOf(j))
		b.nodes[i] = old.nodes[j]
		b.nodes[i].heard = heard[i*b.delta : i*b.delta : (i+1)*b.delta]
		b.recording = b.recording || b.nodes[i].chLog != nil
		b.cohort = append(b.cohort, int32(i))
	}
	for i, s := range nodes {
		s.bank, s.idx = b, i
	}
	b.splitRoles()
	return b
}

// BankDiscoverers attaches a SeekBank when every discoverer in ds is a
// CSEEK/CKSEEK machine, reporting whether it did. Baselines (naive,
// uniform) stay on per-node dispatch.
func BankDiscoverers(ds []Discoverer) bool {
	seeks := make([]*CSeek, len(ds))
	for i, d := range ds {
		s, ok := d.(*CSeek)
		if !ok {
			return false
		}
		seeks[i] = s
	}
	NewSeekBank(seeks)
	return true
}

func (b *SeekBank) countsOf(u int) []int64 {
	return b.counts[u*b.c : (u+1)*b.c : (u+1)*b.c]
}

// cursor returns node u's schedule position.
func (b *SeekBank) cursor(u int) *seekCursor {
	if nd := &b.nodes[u]; nd.lagging {
		return &nd.cur
	}
	return &b.cur
}

func (b *SeekBank) recordChannels(u int) {
	nd := &b.nodes[u]
	nd.chLog = make([]int32, 0, b.sched.p1Steps+b.sched.p2Steps)
	if b.cursor(u).kind != finished {
		nd.chLog = append(nd.chLog, b.ch[u])
	}
	b.recording = true
}

// splitRoles rebuilds this step's listener and broadcaster lists.
func (b *SeekBank) splitRoles() {
	ls, bs := b.listeners[:0], b.bcasters[:0]
	for _, u := range b.cohort {
		if b.listener[u] {
			ls = append(ls, u)
		} else {
			bs = append(bs, u)
		}
	}
	b.listeners, b.bcasters = ls, bs
}

// ----- Per-node transitions, shared by the cohort and the laggers -----

// beginStep rolls node u's per-step random choices for a step of the
// given kind.
func (b *SeekBank) beginStep(u int, kind stepKind) {
	r := b.rands[u]
	nd := &b.nodes[u]
	var ch int
	switch kind {
	case partOne:
		ch = r.Intn(b.c)
		b.listener[u] = r.Bool()
		nd.heardIn, nd.distinct, nd.estimate = 0, 0, 0
	case partTwo:
		listener := r.Bool()
		b.listener[u] = listener
		switch {
		case !listener:
			ch = r.Intn(b.c)
			var bits uint64
			for i, t := range b.sched.backoff {
				if r.Below(t) {
					bits |= 1 << uint(i)
				}
			}
			b.p2bits[u] = bits
		case nd.countSum > 0:
			ch = r.WeightedChoice(b.countsOf(u))
		default:
			// No density information (no counts triggered in part
			// one): fall back to uniform.
			ch = r.Intn(b.c)
		}
	}
	b.ch[u] = int32(ch)
	if nd.chLog != nil {
		nd.chLog = append(nd.chLog, int32(ch))
	}
}

// endRound applies COUNT's round-end trigger rule to listener u.
func (b *SeekBank) endRound(u, round int) {
	nd := &b.nodes[u]
	if nd.estimate == 0 {
		if est, ok := b.sched.count.trigger(int(nd.heardIn), round); ok {
			nd.estimate = est
		}
	}
	nd.heardIn = 0
}

// addCount folds listener u's COUNT result into its density row at a
// part-one step's end; without a trigger the count falls back to the
// distinct identities heard in the step.
func (b *SeekBank) addCount(u int) {
	nd := &b.nodes[u]
	c := nd.estimate
	if c == 0 {
		c = int64(nd.distinct)
	}
	b.counts[u*b.c+int(b.ch[u])] += c
	nd.countSum += c
}

// hear records that listener u, at cursor position c and engine slot
// at, heard from.
func (b *SeekBank) hear(u int, from radio.NodeID, c *seekCursor, at int64) {
	nd := &b.nodes[u]
	i := nd.search(from)
	if i == len(nd.heard) || nd.heard[i].id != from {
		nd.heard = append(nd.heard, heardRec{})
		copy(nd.heard[i+1:], nd.heard[i:])
		nd.heard[i] = heardRec{id: from, local: c.slot, engine: at}
	}
	if c.kind == partOne {
		nd.heardIn++
		if r := &nd.heard[i]; r.step != int32(c.step+1) {
			r.step = int32(c.step + 1)
			nd.distinct++
		}
	}
}

// actOne is node u's action at cursor position c.
func (b *SeekBank) actOne(u int, c *seekCursor) radio.Action {
	ch := int(b.ch[u])
	switch c.kind {
	case partOne:
		if b.listener[u] {
			return radio.Action{Kind: radio.Listen, Ch: ch}
		}
		if b.rands[u].Below(b.sched.count.thresh[c.round]) {
			return radio.Action{Kind: radio.Broadcast, Ch: ch, Data: SeekMessage{}}
		}
	case partTwo:
		if b.listener[u] {
			return radio.Action{Kind: radio.Listen, Ch: ch}
		}
		if b.p2bits[u]>>uint(c.stepSlot)&1 != 0 {
			return radio.Action{Kind: radio.Broadcast, Ch: ch, Data: SeekMessage{}}
		}
	default:
		return radio.Action{Kind: radio.Idle}
	}
	// A silent broadcaster stays tuned to the step's channel.
	return radio.Action{Kind: radio.Idle, Ch: ch}
}

// stepNode moves a lagger's own cursor past one slot, applying the
// round and step transitions the cohort applies in settle.
func (b *SeekBank) stepNode(u int, c *seekCursor) {
	roundEnd, stepEnd := c.advance(&b.sched)
	if roundEnd {
		if b.listener[u] {
			b.endRound(u, c.round)
		}
		c.nextRound()
	}
	if !stepEnd {
		return
	}
	if c.kind == partOne && b.listener[u] {
		b.addCount(u)
	}
	c.nextStep(&b.sched)
	if c.kind != finished {
		b.beginStep(u, c.kind)
	}
}

// ----- Slot bookkeeping -----

// beginActs records that nodes [lo, hi) act in engine slot slot. A
// call that does not continue the open slot's ascending sweep opens a
// new slot, settling the previous one first.
func (b *SeekBank) beginActs(slot int64, lo, hi int) {
	if !b.pending || lo < b.nextLo {
		b.settle()
		b.pending, b.pendSlot = true, slot
		b.cov = b.cov[:0]
		if b.recording && b.cur.kind != finished && slot != b.cohortLast+1 {
			b.cohortMarks = append(b.cohortMarks, slotMark{engine: slot, local: b.cur.slot})
		}
	}
	if k := len(b.cov) - 1; k >= 0 && b.cov[k].hi == lo {
		b.cov[k].hi = hi
	} else {
		b.cov = append(b.cov, span{lo, hi})
	}
	b.nextLo = hi
}

// settle closes the open slot for the cohort: members that were not
// stepped in it become laggers, and the rest advance the shared cursor
// once, applying round and step boundaries member by member.
func (b *SeekBank) settle() {
	if !b.pending {
		return
	}
	b.pending = false
	if b.cur.kind == finished || len(b.cohort) == 0 {
		return
	}
	if len(b.cov) != 1 || b.cov[0].lo > int(b.cohort[0]) || b.cov[0].hi <= int(b.cohort[len(b.cohort)-1]) {
		b.dropUnstepped()
		if len(b.cohort) == 0 {
			return
		}
	}
	b.cohortLast = b.pendSlot
	roundEnd, stepEnd := b.cur.advance(&b.sched)
	if roundEnd {
		for _, u := range b.listeners {
			b.endRound(int(u), b.cur.round)
		}
		b.cur.nextRound()
	}
	if !stepEnd {
		return
	}
	if b.cur.kind == partOne {
		for _, u := range b.listeners {
			b.addCount(int(u))
		}
	}
	b.cur.nextStep(&b.sched)
	if b.cur.kind == finished {
		return
	}
	for _, u := range b.cohort {
		b.beginStep(int(u), b.cur.kind)
	}
	b.splitRoles()
}

// dropUnstepped turns every cohort member outside the open slot's
// acted ranges into a lagger at the cohort's pre-slot position.
func (b *SeekBank) dropUnstepped() {
	kept := b.cohort[:0]
	cov := b.cov
	ci := 0
	for _, u := range b.cohort {
		for ci < len(cov) && cov[ci].hi <= int(u) {
			ci++
		}
		if ci < len(cov) && cov[ci].lo <= int(u) {
			kept = append(kept, u)
			continue
		}
		nd := &b.nodes[u]
		nd.lagging = true
		nd.cur = b.cur
		nd.last = b.cohortLast
		if nd.chLog != nil {
			nd.marks = append([]slotMark(nil), b.cohortMarks...)
		}
		i := lowerBound(b.laggers, int(u))
		b.laggers = append(b.laggers, 0)
		copy(b.laggers[i+1:], b.laggers[i:])
		b.laggers[i] = u
	}
	b.cohort = kept
	b.splitRoles()
}

// lagAct is a lagger's Act on its own clock.
func (b *SeekBank) lagAct(u int, slot int64) radio.Action {
	nd := &b.nodes[u]
	if nd.chLog != nil && slot != nd.last+1 {
		nd.marks = append(nd.marks, slotMark{engine: slot, local: nd.cur.slot})
	}
	nd.last = slot
	return b.actOne(u, &nd.cur)
}

// lagObserve is a lagger's Observe on its own clock.
func (b *SeekBank) lagObserve(u int, slot int64, heard bool, from radio.NodeID) {
	c := &b.nodes[u].cur
	if c.kind == finished {
		return
	}
	if heard && b.listener[u] {
		b.hear(u, from, c, slot)
	}
	b.stepNode(u, c)
}

// act is one member's Act (per-node dispatch).
func (b *SeekBank) act(u int, slot int64) radio.Action {
	b.beginActs(slot, u, u+1)
	if b.nodes[u].lagging {
		return b.lagAct(u, slot)
	}
	return b.actOne(u, &b.cur)
}

// observe is one member's Observe (per-node dispatch).
func (b *SeekBank) observe(u int, slot int64, heard bool, from radio.NodeID) {
	if b.nodes[u].lagging {
		b.lagObserve(u, slot, heard, from)
		return
	}
	if heard && b.listener[u] && b.cur.kind != finished {
		b.hear(u, from, &b.cur, slot)
	}
}

// ActRange implements radio.RangeProtocol.
func (b *SeekBank) ActRange(slot int64, lo, hi int, acts []radio.Action) {
	b.beginActs(slot, lo, hi)
	if kind := b.cur.kind; kind != finished {
		ls, bs := b.listeners, b.bcasters
		if lo != 0 || hi != len(b.nodes) {
			ls, bs = window(ls, lo, hi), window(bs, lo, hi)
		}
		ch := b.ch
		for _, u := range ls {
			acts[u] = radio.Action{Kind: radio.Listen, Ch: int(ch[u])}
		}
		if kind == partOne {
			t := b.sched.count.thresh[b.cur.round]
			rands := b.rands
			for _, u := range bs {
				a := radio.Action{Kind: radio.Idle, Ch: int(ch[u])}
				if rands[u].Below(t) {
					a.Kind, a.Data = radio.Broadcast, SeekMessage{}
				}
				acts[u] = a
			}
		} else {
			bit := uint(b.cur.stepSlot)
			p2bits := b.p2bits
			for _, u := range bs {
				a := radio.Action{Kind: radio.Idle, Ch: int(ch[u])}
				if p2bits[u]>>bit&1 != 0 {
					a.Kind, a.Data = radio.Broadcast, SeekMessage{}
				}
				acts[u] = a
			}
		}
	}
	if len(b.laggers) > 0 {
		for _, u := range window(b.laggers, lo, hi) {
			acts[u] = b.lagAct(int(u), slot)
		}
	}
}

// ObserveRange implements radio.RangeProtocol.
func (b *SeekBank) ObserveRange(slot int64, lo, hi int, deliveries []radio.Delivery) {
	if b.cur.kind != finished {
		ls := b.listeners
		if lo != 0 || hi != len(b.nodes) {
			ls = window(ls, lo, hi)
		}
		for _, u := range ls {
			if from := deliveries[u].From; from >= 0 {
				b.hear(int(u), from, &b.cur, slot)
			}
		}
	}
	if len(b.laggers) > 0 {
		for _, u := range window(b.laggers, lo, hi) {
			from := deliveries[u].From
			b.lagObserve(int(u), slot, from >= 0, from)
		}
	}
}

// localAt maps engine slot t onto a local slot through a node's clock
// marks; consumed is the node's current local slot.
func localAt(marks []slotMark, t, consumed int64) (int64, bool) {
	i := len(marks) - 1
	for i >= 0 && marks[i].engine > t {
		i--
	}
	if i < 0 {
		return 0, false
	}
	local := marks[i].local + (t - marks[i].engine)
	end := consumed
	if i+1 < len(marks) {
		end = marks[i+1].local
	}
	return local, local < end
}

// window returns the part of an ascending index list inside [lo, hi).
func window(list []int32, lo, hi int) []int32 {
	i := lowerBound(list, lo)
	return list[i : i+lowerBound(list[i:], hi)]
}

// lowerBound returns the first position in an ascending list whose
// value is >= v.
func lowerBound(list []int32, v int) int {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(list[m]) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
