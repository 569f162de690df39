package crn

import (
	"context"

	"crn/internal/core"
	"crn/internal/radio"
)

// BroadcastSession is CGCAST's reusable setup: after one round of
// discovery, dedicated-channel fixing and edge coloring, any number of
// messages can be disseminated from any source, each costing only the
// O~(D·Δ) dissemination schedule. This is where CGCAST's one-time
// setup amortizes against per-broadcast flooding.
type BroadcastSession struct {
	s       *Scenario
	session *core.BroadcastSession
}

// NewBroadcastSession runs CGCAST's setup stages once and returns the
// reusable session.
func (s *Scenario) NewBroadcastSession(seed uint64, opts ...BroadcastOption) (*BroadcastSession, error) {
	return s.NewBroadcastSessionCtx(context.Background(), seed, opts...)
}

// NewBroadcastSessionCtx is NewBroadcastSession with cooperative
// cancellation of the setup stages.
func (s *Scenario) NewBroadcastSessionCtx(ctx context.Context, seed uint64, opts ...BroadcastOption) (*BroadcastSession, error) {
	o := resolveBroadcastOptions(opts)
	session, err := core.PrepareCGCastCtx(ctx, s.runNetwork(), core.SessionConfig{
		Params: s.p,
		Mode:   o.mode,
		Seed:   seed,
	})
	if err != nil {
		return nil, err
	}
	return &BroadcastSession{s: s, session: session}, nil
}

// SetupSlots returns the one-time setup cost in slots.
func (bs *BroadcastSession) SetupSlots() int64 { return bs.session.SetupSlots() }

// EdgesColored returns the number of schedulable (colored) edges.
func (bs *BroadcastSession) EdgesColored() int { return bs.session.EdgesColored() }

// SessionBroadcastResult reports one dissemination over a session.
type SessionBroadcastResult struct {
	// ScheduleSlots is the fixed dissemination length.
	ScheduleSlots int64 `json:"scheduleSlots"`
	// AllInformedAtSlot is when the last node got the message, or -1.
	AllInformedAtSlot int64 `json:"allInformedAtSlot"`
	// AllInformed reports whether every node got the message.
	AllInformed bool `json:"allInformed"`
}

// Broadcast disseminates one message from source over the prepared
// schedule.
func (bs *BroadcastSession) Broadcast(source int, message any, seed uint64) (*SessionBroadcastResult, error) {
	return bs.disseminate(context.Background(), bs.s.d, source, message, seed)
}

// BroadcastCtx is Broadcast with cooperative cancellation.
func (bs *BroadcastSession) BroadcastCtx(ctx context.Context, source int, message any, seed uint64) (*SessionBroadcastResult, error) {
	return bs.disseminate(ctx, bs.s.d, source, message, seed)
}

// LocalBroadcast delivers a message from source to its immediate
// neighbors only: a single phase of the dissemination schedule, the
// local-broadcast primitive the global algorithm repeats D times.
// In the result, AllInformed refers to the source's neighborhood;
// AllInformedAtSlot stays -1 unless the single phase happened to reach
// the whole network (it tracks the global predicate).
func (bs *BroadcastSession) LocalBroadcast(source int, message any, seed uint64) (*SessionBroadcastResult, error) {
	return bs.LocalBroadcastCtx(context.Background(), source, message, seed)
}

// LocalBroadcastCtx is LocalBroadcast with cooperative cancellation.
func (bs *BroadcastSession) LocalBroadcastCtx(ctx context.Context, source int, message any, seed uint64) (*SessionBroadcastResult, error) {
	res, err := bs.session.DisseminateCtx(ctx, 1, radio.NodeID(source), message, seed)
	if err != nil {
		return nil, err
	}
	all := true
	for _, v := range bs.s.g.Neighbors(source) {
		if !res.Informed[v] {
			all = false
			break
		}
	}
	return &SessionBroadcastResult{
		ScheduleSlots:     res.ScheduleSlots,
		AllInformedAtSlot: res.AllInformedAt,
		AllInformed:       all,
	}, nil
}

func (bs *BroadcastSession) disseminate(ctx context.Context, d, source int, message any, seed uint64) (*SessionBroadcastResult, error) {
	res, err := bs.session.DisseminateCtx(ctx, d, radio.NodeID(source), message, seed)
	if err != nil {
		return nil, err
	}
	return &SessionBroadcastResult{
		ScheduleSlots:     res.ScheduleSlots,
		AllInformedAtSlot: res.AllInformedAt,
		AllInformed:       res.AllInformed,
	}, nil
}
