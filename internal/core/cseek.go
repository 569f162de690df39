package core

import (
	"fmt"

	"crn/internal/radio"
	"crn/internal/rng"
)

// CSEEK (Section 4.2, Figure 1) solves neighbor discovery in
// O~((c²/k) + (kmax/k)·Δ) slots, w.h.p.
//
// Part one: Θ((c²/k)·lg n) steps. Each step the node goes to a
// uniformly random channel, flips a fair coin to become broadcaster or
// listener, and runs COUNT on that channel. Listeners accumulate the
// per-channel counts (the channel "density" samples) and record every
// identity heard; broadcasters announce their identity per the COUNT
// schedule.
//
// Part two: Θ((kmax/k)·Δ·lg n) steps of lg Δ slots. Each step the node
// flips a coin: a broadcaster picks a uniformly random channel and runs
// a back-off (broadcast with probability 2^(i-1)/Δ in the i-th slot); a
// listener picks a channel with probability proportional to the count
// it accumulated in part one — spending its time where it expects the
// most undiscovered neighbors — and records every identity heard.
//
// CKSEEK (Section 4.4) is the same machine with shorter schedules: part
// one Θ((c²/k̂)·lg n) steps and part two Θ(((kmax/k̂)·Δ_k̂ + Δ + c)·lg n)
// steps, solving k̂-neighbor-discovery (Theorem 6).
//
// The same machine also doubles as CGCAST's message-exchange primitive
// (Section 5.1 observes that a neighbor discovery run is exactly a
// pairwise exchange): data a node attaches to its frames reaches
// exactly the neighbors that discover it, so CGCAST reads who heard
// whom from Discovered.
//
// Every node's state lives in a SeekBank (seekbank.go); a *CSeek is a
// view (bank, index) into one. NewCSeek builds a one-member bank and
// NewSeekBank merges fresh members into one shared bank, so per-node
// and range dispatch drive the same state machine.

// SeekMessage is the frame CSEEK broadcasts: the sender's identity
// travels as radio.Message.From, and the frame carries nothing else.
type SeekMessage struct{}

// CSeek is the CSEEK/CKSEEK protocol for one node: a view into the
// SeekBank that holds its state.
type CSeek struct {
	bank *SeekBank
	idx  int
}

var _ radio.Protocol = (*CSeek)(nil)

type stepKind uint8

const (
	partOne stepKind = iota + 1
	partTwo
	finished
)

// seekSchedule fixes the step layout of one CSEEK/CKSEEK execution.
type seekSchedule struct {
	p1Steps     int
	p2Steps     int
	count       countSchedule
	countTotal  int // count.TotalSlots(), cached for the per-slot path
	p2SlotsStep int
	// backoff[i] is the part-two back-off probability 2^i/2^(lgΔ) of a
	// step's slot i, in rng.BernoulliThreshold form.
	backoff []uint64
}

func (s *seekSchedule) p1Slots() int64 { return int64(s.p1Steps) * int64(s.countTotal) }

func (s *seekSchedule) totalSlots() int64 {
	return s.p1Slots() + int64(s.p2Steps)*int64(s.p2SlotsStep)
}

// stepOf returns the index of the step that contains local slot t.
func (s *seekSchedule) stepOf(t int64) int {
	if p1 := s.p1Slots(); t >= p1 {
		return s.p1Steps + int((t-p1)/int64(s.p2SlotsStep))
	}
	return int(t / int64(s.countTotal))
}

// sameLayout reports whether two schedules step identically, so their
// nodes can share one cohort cursor.
func (s *seekSchedule) sameLayout(o *seekSchedule) bool {
	return s.p1Steps == o.p1Steps && s.p2Steps == o.p2Steps &&
		s.p2SlotsStep == o.p2SlotsStep && s.count.rounds == o.count.rounds &&
		s.count.slotsPerRound == o.count.slotsPerRound && s.count.threshold == o.count.threshold
}

// seekCursor is a position in a seekSchedule. A bank's cohort shares
// one; every lagger carries its own.
type seekCursor struct {
	kind        stepKind
	step        int   // index of the current step (part one, then part two)
	stepSlot    int   // slot offset within the step
	round       int   // COUNT round within a part-one step
	slotInRound int   // slot within that round
	slot        int64 // slots consumed: the node's local clock
}

// advance moves the cursor past one slot, reporting whether the slot
// closed a COUNT round and whether it closed the step. The caller
// applies the round-end rule, then rolls the round (nextRound) and,
// at a step end, the step (nextStep).
func (c *seekCursor) advance(s *seekSchedule) (roundEnd, stepEnd bool) {
	c.slot++
	c.stepSlot++
	switch c.kind {
	case partOne:
		c.slotInRound++
		return c.slotInRound == s.count.slotsPerRound, c.stepSlot == s.countTotal
	case partTwo:
		return false, c.stepSlot == s.p2SlotsStep
	}
	return false, false
}

func (c *seekCursor) nextRound() {
	c.round++
	c.slotInRound = 0
}

// nextStep moves to the next step, switching part or finishing when
// the current part's steps are used up.
func (c *seekCursor) nextStep(s *seekSchedule) {
	c.step++
	c.stepSlot, c.round, c.slotInRound = 0, 0, 0
	if c.kind == partOne && c.step == s.p1Steps {
		c.kind = partTwo
	}
	if c.kind == partTwo && c.step == s.p1Steps+s.p2Steps {
		c.kind = finished
	}
}

// NewCSeek returns the CSEEK machine for one node (Theorem 4
// schedule).
func NewCSeek(p Params, env Env) (*CSeek, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	lgn := p.LgN()
	p1 := scaledSteps(p.Tuning.P1Steps, ceilDiv(p.C*p.C, p.K), lgn)
	p2 := scaledSteps(p.Tuning.P2Steps, ceilDiv(p.KMax*p.Delta, p.K), lgn)
	return newSeek(p, env, p1, p2)
}

// NewCKSeek returns the CKSEEK machine for k̂-neighbor-discovery
// (Theorem 6 schedule). khat must be in [k, kmax]; deltaKhat is Δ_k̂,
// the maximum number of good neighbors a node can have (pass Δ when no
// estimate is available, matching the paper's fallback).
func NewCKSeek(p Params, env Env, khat, deltaKhat int) (*CSeek, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	if khat < p.K || khat > p.KMax {
		return nil, fmt.Errorf("core: k̂ must be in [k,kmax] = [%d,%d], got %d", p.K, p.KMax, khat)
	}
	if deltaKhat < 0 || deltaKhat > p.Delta {
		return nil, fmt.Errorf("core: Δ_k̂ must be in [0,Δ] = [0,%d], got %d", p.Delta, deltaKhat)
	}
	lgn := p.LgN()
	p1 := scaledSteps(p.Tuning.P1Steps, ceilDiv(p.C*p.C, khat), lgn)
	base := ceilDiv(p.KMax*deltaKhat, khat) + p.Delta + p.C
	p2 := scaledSteps(p.Tuning.P2Steps, base, lgn)
	return newSeek(p, env, p1, p2)
}

func newSeek(p Params, env Env, p1Steps, p2Steps int) (*CSeek, error) {
	if env.C != p.C {
		return nil, fmt.Errorf("core: env has %d channels, params say %d", env.C, p.C)
	}
	if env.Rand == nil {
		return nil, fmt.Errorf("core: env needs a random source")
	}
	count := p.countSchedule()
	lgDelta := p.LgDelta()
	sched := seekSchedule{
		p1Steps:     p1Steps,
		p2Steps:     p2Steps,
		count:       count,
		countTotal:  count.TotalSlots(),
		p2SlotsStep: lgDelta,
		backoff:     make([]uint64, lgDelta),
	}
	// Back-off: broadcast with probability 2^(i-1)/Δ in slot i, i.e.
	// 2^i / 2^(lgΔ) in 0-based slot i.
	denom := int64(1) << uint(lgDelta)
	for i := range sched.backoff {
		sched.backoff[i] = rng.BernoulliThreshold(float64(int64(1)<<uint(i)) / float64(denom))
	}
	return newSoloSeek(sched, p.C, p.Delta, env.Rand), nil
}

// RecordChannels enables the channel log needed by CGCAST's
// dedicated-channel fixing. Must be called before the run starts.
func (s *CSeek) RecordChannels() { s.bank.recordChannels(s.idx) }

// TotalSlots returns the fixed length of this execution.
func (s *CSeek) TotalSlots() int64 { return s.bank.sched.totalSlots() }

// MinDoneSlots implements radio.FixedSchedule: CSEEK's state machine
// reaches `finished` exactly when its fixed schedule ends, never
// earlier, so the engine may skip Done polls until then.
func (s *CSeek) MinDoneSlots() int64 { return s.bank.sched.totalSlots() }

// PartOneSlots returns the slot count of part one (the density-
// sampling part, O~((c²/k)·lg³n)).
func (s *CSeek) PartOneSlots() int64 { return s.bank.sched.p1Slots() }

// PartTwoSlots returns the slot count of part two (the density-
// guided part, O~((kmax/k)·Δ·lg²n)).
func (s *CSeek) PartTwoSlots() int64 {
	return int64(s.bank.sched.p2Steps) * int64(s.bank.sched.p2SlotsStep)
}

// Act implements radio.Protocol.
func (s *CSeek) Act(slot int64) radio.Action { return s.bank.act(s.idx, slot) }

// Observe implements radio.Protocol.
func (s *CSeek) Observe(slot int64, msg *radio.Message) {
	if msg == nil {
		s.bank.observe(s.idx, slot, false, 0)
		return
	}
	s.bank.observe(s.idx, slot, true, msg.From)
}

// Done implements radio.Protocol.
func (s *CSeek) Done() bool {
	s.bank.settle()
	return s.bank.cursor(s.idx).kind == finished
}

// Discovered returns the identities heard so far in ascending order.
// The caller owns the returned slice.
func (s *CSeek) Discovered() []radio.NodeID {
	heard := s.bank.nodes[s.idx].heard
	out := make([]radio.NodeID, len(heard))
	for i, r := range heard {
		out[i] = r.id
	}
	return out
}

// FirstHeard returns the slot of this node's local clock — slots it
// has been stepped, relative to this run's start — in which it first
// heard id. Under a topology feed the local clock freezes while the
// node is down.
func (s *CSeek) FirstHeard(id radio.NodeID) (slot int64, ok bool) {
	if r := s.bank.nodes[s.idx].find(id); r != nil {
		return r.local, true
	}
	return 0, false
}

// FirstHeardEngine is FirstHeard on the engine clock: the engine slot
// in which id was first heard. Both clocks agree unless the node was
// down at some point before the hearing.
func (s *CSeek) FirstHeardEngine(id radio.NodeID) (slot int64, ok bool) {
	if r := s.bank.nodes[s.idx].find(id); r != nil {
		return r.engine, true
	}
	return 0, false
}

// DiscoveredCount returns the number of distinct identities heard.
func (s *CSeek) DiscoveredCount() int { return len(s.bank.nodes[s.idx].heard) }

// ChannelAt returns the local channel the node was tuned to in the
// given slot of its local clock; RecordChannels must have been
// enabled.
func (s *CSeek) ChannelAt(slot int64) (int32, bool) {
	b := s.bank
	b.settle()
	log := b.nodes[s.idx].chLog
	if log == nil || slot < 0 || slot >= b.cursor(s.idx).slot {
		return 0, false
	}
	return log[b.sched.stepOf(slot)], true
}

// ChannelAtEngine is ChannelAt on the engine clock: the local channel
// the node was tuned to in the given engine slot, or false when the
// node was not stepped in it (down, not started or finished).
func (s *CSeek) ChannelAtEngine(slot int64) (int32, bool) {
	b := s.bank
	b.settle()
	nd := &b.nodes[s.idx]
	marks := b.cohortMarks
	if nd.lagging {
		marks = nd.marks
	}
	local, ok := localAt(marks, slot, b.cursor(s.idx).slot)
	if !ok {
		return 0, false
	}
	return s.ChannelAt(local)
}

// Counts returns the per-local-channel density counts accumulated in
// part one. The caller must not modify the slice.
func (s *CSeek) Counts() []int64 {
	b := s.bank
	b.settle()
	return b.countsOf(s.idx)
}

// RangeBank implements radio.RangeNode.
func (s *CSeek) RangeBank() (radio.RangeProtocol, int) { return s.bank, s.idx }
