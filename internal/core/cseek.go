package core

import (
	"fmt"

	"crn/internal/radio"
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

// SeekMessage is the frame CSEEK broadcasts: the sender's identity
// travels as radio.Message.From, and the frame carries nothing else.
type SeekMessage struct{}

// SeekObservation records the first time an identity was heard.
type SeekObservation struct {
	// Slot is the engine slot (relative to this CSEEK run's start) in
	// which the identity was first heard.
	Slot int64
}

// CSeek is the CSEEK/CKSEEK protocol state machine for one node.
type CSeek struct {
	params Params
	env    Env
	sched  seekSchedule

	// recordChannels, when set, logs the local channel used in every
	// slot; CGCAST needs the log to fix dedicated channels.
	recordChannels bool
	channelLog     []int32

	slot int64 // slots consumed so far (also the next Act's offset)

	// Per-step state.
	stepKind    stepKind
	isListener  bool
	ch          int // local channel for this step
	stepSlot    int // slot offset within the current step
	p1Round     int // COUNT round within a part-one step, incremental
	p1SlotInRnd int // slot within that round
	counter     countListener
	p2Broadcast []bool // precomputed back-off decisions for a part-two step

	// Accumulated results.
	counts   []int64 // per-local-channel COUNT totals from part one
	countSum int64
	observed map[radio.NodeID]*SeekObservation

	// bank/bankIdx back-reference the SeekBank this machine is a member
	// of (range dispatch, see bank.go); nil means per-node dispatch.
	bank    *SeekBank
	bankIdx int
}

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
}

func (s seekSchedule) totalSlots() int64 {
	return int64(s.p1Steps)*int64(s.count.TotalSlots()) + int64(s.p2Steps)*int64(s.p2SlotsStep)
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
	sched := seekSchedule{
		p1Steps:     p1Steps,
		p2Steps:     p2Steps,
		count:       count,
		countTotal:  count.TotalSlots(),
		p2SlotsStep: p.LgDelta(),
	}
	// The observed map tops out at the node's neighbor count; pre-size
	// it to Δ so steady-state discovery never rehashes.
	s := &CSeek{
		params:   p,
		env:      env,
		sched:    sched,
		counts:   make([]int64, p.C),
		observed: make(map[radio.NodeID]*SeekObservation, p.Delta),
		counter:  newCountListener(sched.count),
		stepKind: partOne,
	}
	if p1Steps == 0 {
		s.stepKind = partTwo
	}
	s.beginStep()
	return s, nil
}

// RecordChannels enables the per-slot channel log needed by CGCAST's
// dedicated-channel fixing. Must be called before the run starts.
func (s *CSeek) RecordChannels() {
	s.recordChannels = true
	s.channelLog = make([]int32, 0, s.sched.totalSlots())
}

// TotalSlots returns the fixed length of this execution.
func (s *CSeek) TotalSlots() int64 { return s.sched.totalSlots() }

// MinDoneSlots implements radio.FixedSchedule: CSEEK's state machine
// reaches `finished` exactly when its fixed schedule ends, never
// earlier, so the engine may skip Done polls until then.
func (s *CSeek) MinDoneSlots() int64 { return s.sched.totalSlots() }

// PartOneSlots returns the slot count of part one (the density-
// sampling part, O~((c²/k)·lg³n)).
func (s *CSeek) PartOneSlots() int64 {
	return int64(s.sched.p1Steps) * int64(s.sched.count.TotalSlots())
}

// PartTwoSlots returns the slot count of part two (the density-guided
// part, O~((kmax/k)·Δ·lg²n)).
func (s *CSeek) PartTwoSlots() int64 {
	return int64(s.sched.p2Steps) * int64(s.sched.p2SlotsStep)
}

// beginStep rolls the per-step random choices.
func (s *CSeek) beginStep() {
	s.stepSlot = 0
	switch s.stepKind {
	case partOne:
		s.ch = s.env.Rand.Intn(s.env.C)
		s.isListener = s.env.Rand.Bool()
		s.p1Round = 0
		s.p1SlotInRnd = 0
		s.counter.reset()
	case partTwo:
		s.isListener = s.env.Rand.Bool()
		if s.isListener {
			if s.countSum > 0 {
				s.ch = s.env.Rand.WeightedChoice(s.counts)
			} else {
				// No density information (no counts triggered in part
				// one): fall back to uniform.
				s.ch = s.env.Rand.Intn(s.env.C)
			}
		} else {
			s.ch = s.env.Rand.Intn(s.env.C)
			// Back-off: broadcast with probability 2^(i-1)/Δ in slot i.
			if cap(s.p2Broadcast) < s.sched.p2SlotsStep {
				s.p2Broadcast = make([]bool, s.sched.p2SlotsStep)
			}
			s.p2Broadcast = s.p2Broadcast[:s.sched.p2SlotsStep]
			denom := int64(1) << uint(s.sched.p2SlotsStep)
			for i := range s.p2Broadcast {
				// Slot i (0-based): probability 2^i / 2^(lgΔ).
				p := float64(int64(1)<<uint(i)) / float64(denom)
				s.p2Broadcast[i] = s.env.Rand.Bernoulli(p)
			}
		}
	}
}

// Act implements radio.Protocol.
func (s *CSeek) Act(_ int64) radio.Action {
	var a radio.Action
	switch s.stepKind {
	case partOne:
		if s.isListener {
			a = radio.Action{Kind: radio.Listen, Ch: s.ch}
		} else {
			if s.env.Rand.Bernoulli(s.sched.count.broadcastProb(s.p1Round)) {
				a = radio.Action{Kind: radio.Broadcast, Ch: s.ch, Data: SeekMessage{}}
			} else {
				// Stay tuned to the step's channel while silent so the
				// channel log stays meaningful.
				a = radio.Action{Kind: radio.Idle, Ch: s.ch}
			}
		}
	case partTwo:
		if s.isListener {
			a = radio.Action{Kind: radio.Listen, Ch: s.ch}
		} else if s.p2Broadcast[s.stepSlot] {
			a = radio.Action{Kind: radio.Broadcast, Ch: s.ch, Data: SeekMessage{}}
		} else {
			a = radio.Action{Kind: radio.Idle, Ch: s.ch}
		}
	default:
		a = radio.Action{Kind: radio.Idle}
	}
	if s.recordChannels {
		s.channelLog = append(s.channelLog, int32(s.ch))
	}
	return a
}

// Observe implements radio.Protocol.
func (s *CSeek) Observe(_ int64, msg *radio.Message) {
	if msg == nil {
		s.observeOutcome(false, 0)
		return
	}
	s.observeOutcome(true, msg.From)
}

// observeOutcome is Observe with the delivery already unpacked: the
// SeekBank's range dispatch feeds outcomes here directly, so both
// dispatch modes run the identical state machine (byte-identity by
// construction) and the range path never materializes a Message.
func (s *CSeek) observeOutcome(heard bool, from radio.NodeID) {
	switch s.stepKind {
	case partOne:
		if s.isListener {
			s.counter.observeOutcome(heard, from)
			s.note(heard, from)
		}
		s.stepSlot++
		s.p1SlotInRnd++
		if s.p1SlotInRnd == s.sched.count.slotsPerRound {
			s.p1Round++
			s.p1SlotInRnd = 0
		}
		if s.stepSlot == s.sched.countTotal {
			if s.isListener {
				c := s.counter.count()
				s.counts[s.ch] += c
				s.countSum += c
			}
			s.advanceStep()
		}
	case partTwo:
		if s.isListener {
			s.note(heard, from)
		}
		s.stepSlot++
		if s.stepSlot == s.sched.p2SlotsStep {
			s.advanceStep()
		}
	}
	s.slot++
}

func (s *CSeek) advanceStep() {
	switch s.stepKind {
	case partOne:
		if s.stepsDone(partOne) {
			s.stepKind = partTwo
			if s.sched.p2Steps == 0 {
				s.stepKind = finished
				return
			}
		}
	case partTwo:
		if s.stepsDone(partTwo) {
			s.stepKind = finished
			return
		}
	}
	s.beginStep()
}

// stepsDone reports whether the slots consumed so far complete the
// given part (called only at step boundaries).
func (s *CSeek) stepsDone(k stepKind) bool {
	p1Slots := int64(s.sched.p1Steps) * int64(s.sched.count.TotalSlots())
	switch k {
	case partOne:
		return s.slot+1 >= p1Slots
	case partTwo:
		return s.slot+1 >= p1Slots+int64(s.sched.p2Steps)*int64(s.sched.p2SlotsStep)
	}
	return true
}

func (s *CSeek) note(heard bool, from radio.NodeID) {
	if !heard {
		return
	}
	if _, ok := s.observed[from]; !ok {
		s.observed[from] = &SeekObservation{Slot: s.slot}
	}
}

// Done implements radio.Protocol.
func (s *CSeek) Done() bool { return s.stepKind == finished }

// Discovered returns the identities heard so far. The caller owns the
// returned slice.
func (s *CSeek) Discovered() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(s.observed))
	for id := range s.observed {
		out = append(out, id)
	}
	return out
}

// Observation returns the record for one identity, or nil if it was
// never heard.
func (s *CSeek) Observation(id radio.NodeID) *SeekObservation {
	return s.observed[id]
}

// DiscoveredCount returns the number of distinct identities heard.
func (s *CSeek) DiscoveredCount() int { return len(s.observed) }

// ChannelAt returns the local channel the node was tuned to in the
// given slot of this run; RecordChannels must have been enabled.
func (s *CSeek) ChannelAt(slot int64) (int32, bool) {
	if !s.recordChannels || slot < 0 || slot >= int64(len(s.channelLog)) {
		return 0, false
	}
	return s.channelLog[slot], true
}

// Counts returns the per-local-channel density counts accumulated in
// part one. The caller must not modify the slice.
func (s *CSeek) Counts() []int64 { return s.counts }
