package core

import (
	"crn/internal/radio"
	"crn/internal/rng"
)

// COUNT (Section 4.1, Appendix A): one listener and an unknown number
// m ≤ Δ of broadcasters share a channel; the listener wants an estimate
// of m within a constant factor.
//
// The procedure runs lg Δ rounds of Θ(lg n) slots. In round i the
// shared estimate is 2^(i-1); each broadcaster broadcasts its identity
// in each slot independently with probability 1/2^(i-1), and the
// listener counts the slots in which it hears a message. The listener
// adopts 2^(i+1) as its count in the first round whose heard fraction
// exceeds the trigger threshold; if no round triggers, the count falls
// back to the number of distinct identities heard — which happens
// exactly when there are so few broadcasters that contention was never
// significant.
//
// Lemma 1: the estimate lands in [m, 4m] w.h.p.

// countSchedule fixes the COUNT slot layout derived from Params.
type countSchedule struct {
	rounds        int
	slotsPerRound int
	threshold     float64
	// thresh[r] is round r's broadcast probability 1/2^r in the integer
	// form of rng.BernoulliThreshold, precomputed so the per-slot hot
	// path does a load and an integer compare instead of float work.
	thresh []uint64
}

func (p Params) countSchedule() countSchedule {
	slots := int(p.Tuning.CountSlotsPerRound * float64(p.LgN()))
	if slots < p.Tuning.CountMinRoundSlots {
		slots = p.Tuning.CountMinRoundSlots
	}
	// Estimates go 1, 2, 4, … and must reach Δ: lgΔ+1 rounds.
	rounds := p.LgDelta() + 1
	thresh := make([]uint64, rounds)
	for r := range thresh {
		thresh[r] = rng.BernoulliThreshold(broadcastProb(r))
	}
	return countSchedule{
		rounds:        rounds,
		slotsPerRound: slots,
		threshold:     p.Tuning.CountThreshold,
		thresh:        thresh,
	}
}

// TotalSlots returns the length of one COUNT execution.
func (s countSchedule) TotalSlots() int { return s.rounds * s.slotsPerRound }

// round returns the round index (0-based) of a slot within COUNT.
func (s countSchedule) round(slot int) int { return slot / s.slotsPerRound }

// broadcastProb returns the per-slot broadcast probability in round r:
// 1/2^r (round 0 has estimate 1, probability 1).
func broadcastProb(r int) float64 { return 1 / float64(int64(1)<<uint(r)) }

// trigger applies the round-end rule to a listener that heard heardIn
// messages in round r: it adopts 2^(r+2) — 2^(i+1) with i = r+1 the
// 1-based round index — once the heard fraction exceeds the threshold.
func (s countSchedule) trigger(heardIn, r int) (int64, bool) {
	if float64(heardIn)/float64(s.slotsPerRound) > s.threshold {
		return int64(1) << uint(r+2), true
	}
	return 0, false
}

// countListener accumulates the listener side of one COUNT execution
// for the standalone CountListen protocol (CSEEK's part-one steps keep
// the same counters in its SeekBank's flat state). It tracks its own
// position in the schedule with incremental counters (no per-slot
// division); callers must feed it exactly one observe per slot from
// the start of an execution.
type countListener struct {
	sched       countSchedule
	heardIn     int  // messages heard in the current round
	slotInRound int  // slots consumed in the current round
	round       int  // current round index
	triggered   bool // an estimate has been adopted
	estimate    int64
	distinct    map[radio.NodeID]struct{}
}

func newCountListener(sched countSchedule) countListener {
	return countListener{
		sched:    sched,
		distinct: make(map[radio.NodeID]struct{}, 4),
	}
}

// reset prepares the listener for a fresh COUNT execution, reusing the
// allocation.
func (l *countListener) reset() {
	l.heardIn = 0
	l.slotInRound = 0
	l.round = 0
	l.triggered = false
	l.estimate = 0
	clear(l.distinct)
}

// observe processes the outcome of one slot (msg nil on silence or
// collision).
func (l *countListener) observe(msg *radio.Message) {
	if msg == nil {
		l.observeOutcome(false, 0)
		return
	}
	l.observeOutcome(true, msg.From)
}

// observeOutcome is observe with the delivery already unpacked — the
// range-dispatch banks feed outcomes here directly, so both dispatch
// modes share one state machine and no Message value is ever built.
func (l *countListener) observeOutcome(heard bool, from radio.NodeID) {
	if heard {
		l.heardIn++
		// Access-before-assign: in steady state the sender is already
		// known and a map read is cheaper than a rewrite.
		if _, ok := l.distinct[from]; !ok {
			l.distinct[from] = struct{}{}
		}
	}
	l.slotInRound++
	if l.slotInRound < l.sched.slotsPerRound {
		return
	}
	// Round boundary: apply the trigger rule.
	if !l.triggered {
		l.estimate, l.triggered = l.sched.trigger(l.heardIn, l.round)
	}
	l.heardIn = 0
	l.slotInRound = 0
	l.round++
}

// count returns the adopted estimate (see the package comment on the
// no-trigger fallback).
func (l *countListener) count() int64 {
	if l.triggered {
		return l.estimate
	}
	return int64(len(l.distinct))
}

// CountListen is the standalone listener protocol for COUNT on a fixed
// local channel, used by the Lemma 1 experiment and by tests.
type CountListen struct {
	sched countSchedule
	ch    int
	slot  int
	l     countListener

	// bank/bankIdx back-reference the CountBank (range dispatch).
	bank    *CountBank
	bankIdx int
}

var _ radio.Protocol = (*CountListen)(nil)

// NewCountListen returns a listener running one COUNT execution on
// local channel ch.
func NewCountListen(p Params, ch int) (*CountListen, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	sched := p.countSchedule()
	return &CountListen{
		sched: sched,
		ch:    ch,
		l:     newCountListener(sched),
	}, nil
}

// Act implements radio.Protocol.
func (c *CountListen) Act(_ int64) radio.Action {
	return radio.Action{Kind: radio.Listen, Ch: c.ch}
}

// Observe implements radio.Protocol.
func (c *CountListen) Observe(_ int64, msg *radio.Message) {
	c.l.observe(msg)
	c.slot++
}

// observeOutcome is Observe with the delivery already unpacked (the
// CountBank feeds outcomes here).
func (c *CountListen) observeOutcome(heard bool, from radio.NodeID) {
	c.l.observeOutcome(heard, from)
	c.slot++
}

// Done implements radio.Protocol.
func (c *CountListen) Done() bool { return c.slot >= c.sched.TotalSlots() }

// Count returns the estimate; meaningful once Done.
func (c *CountListen) Count() int64 { return c.l.count() }

// Heard returns the identities of all broadcasters heard at least once.
func (c *CountListen) Heard() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(c.l.distinct))
	for id := range c.l.distinct {
		out = append(out, id)
	}
	return out
}

// CountBroadcast is the standalone broadcaster protocol for COUNT.
type CountBroadcast struct {
	sched       countSchedule
	env         Env
	ch          int
	slot        int
	round       int // current round, tracked incrementally
	slotInRound int

	// bank/bankIdx back-reference the CountBank (range dispatch).
	bank    *CountBank
	bankIdx int
}

var _ radio.Protocol = (*CountBroadcast)(nil)

// NewCountBroadcast returns a broadcaster participating in one COUNT
// execution on local channel ch.
func NewCountBroadcast(p Params, env Env, ch int) (*CountBroadcast, error) {
	if err := p.Normalize(); err != nil {
		return nil, err
	}
	return &CountBroadcast{sched: p.countSchedule(), env: env, ch: ch}, nil
}

// Act implements radio.Protocol.
func (c *CountBroadcast) Act(_ int64) radio.Action {
	if c.env.Rand.Below(c.sched.thresh[c.round]) {
		return radio.Action{Kind: radio.Broadcast, Ch: c.ch}
	}
	return radio.Action{Kind: radio.Idle}
}

// Observe implements radio.Protocol.
func (c *CountBroadcast) Observe(_ int64, _ *radio.Message) {
	c.slot++
	c.slotInRound++
	if c.slotInRound == c.sched.slotsPerRound && c.round+1 < c.sched.rounds {
		c.round++
		c.slotInRound = 0
	}
}

// Done implements radio.Protocol.
func (c *CountBroadcast) Done() bool { return c.slot >= c.sched.TotalSlots() }
