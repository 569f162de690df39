package radio

import (
	"fmt"

	"crn/internal/bitset"
)

// This file holds the engine's one dispatch path, the range ABI: Act
// and Observe calls are dispatched over whole node ranges instead of
// one interface call per node per slot. A protocol set backed by a
// shared "bank" implements the ABI itself and runs tight loops over
// flat per-node state; any other protocol set is wrapped in nodeBank,
// an adapter that makes the per-node calls, so collect and resolve
// exist exactly once.
//
// # Detection rules
//
// At construction the engine probes every protocol for RangeNode. The
// protocols' own bank is used iff every node's protocol reports the
// same (pointer-comparable) bank and its own node index within it; any
// mismatch — a node that does not implement RangeNode, a nil bank, a
// foreign bank, a wrong index — silently selects the per-node adapter.
// Done, and the optional FixedSchedule bound, remain per-node
// interface calls: they are off the hot path (refreshDone is amortized
// by FixedSchedule).
//
// # Range semantics
//
// The engine calls ActRange/ObserveRange over maximal runs of live
// nodes, in ascending node order within a slot, so a done or down
// node's machine is never stepped — exactly the per-node contract. The
// slices are indexed by absolute node id (lo and hi delimit the valid
// window). A bank must behave exactly as if Act(slot) and
// Observe(slot, ·) had been invoked per node in ascending order. The
// calls of one slot arrive sequentially — every ActRange of the slot,
// in ascending range order, then every ObserveRange — so a bank may
// keep bank-wide mutable state, such as a schedule cursor its members
// share, and update it between calls.

// Delivery is one node's resolved slot outcome on the range ABI: the
// broadcaster heard (exactly one broadcasting neighbor on the node's
// channel), or From < 0 for everything a per-node Observe reports as
// nil — silence, collision, jam, or a non-listening action. Data is
// only valid during the ObserveRange call (the engine reuses the
// backing storage across slots), mirroring the Message contract.
type Delivery struct {
	From NodeID
	Data any
}

// RangeProtocol is the batch-aware protocol ABI. ActRange fills
// acts[u] for every u in [lo, hi); ObserveRange consumes
// deliveries[u] for every u in [lo, hi). Both must be equivalent to
// the per-node calls in ascending node order (see the file comment).
type RangeProtocol interface {
	ActRange(slot int64, lo, hi int, acts []Action)
	ObserveRange(slot int64, lo, hi int, deliveries []Delivery)
}

// RangeNode is optionally implemented by per-node protocols that are
// views into a shared RangeProtocol bank. RangeBank returns the bank
// and the node's index within it; a nil bank opts out (per-node
// dispatch). The bank's dynamic type must be pointer-comparable.
type RangeNode interface {
	RangeBank() (RangeProtocol, int)
}

// detectRangeBank returns the shared bank iff every protocol is a
// RangeNode view into the same bank at its own index; nil means
// per-node dispatch.
func detectRangeBank(protocols []Protocol) RangeProtocol {
	if len(protocols) == 0 {
		return nil
	}
	rn, ok := protocols[0].(RangeNode)
	if !ok {
		return nil
	}
	bank, idx := rn.RangeBank()
	if bank == nil || idx != 0 {
		return nil
	}
	for u := 1; u < len(protocols); u++ {
		rn, ok := protocols[u].(RangeNode)
		if !ok {
			return nil
		}
		b, i := rn.RangeBank()
		if b != bank || i != u {
			return nil
		}
	}
	return bank
}

// nodeBank adapts per-node protocols to the range ABI: ActRange and
// ObserveRange make the per-node Act and Observe calls in ascending
// node order. msg backs every delivered Message, which is why the
// Observe contract limits message lifetime to the call.
type nodeBank struct {
	protocols []Protocol
	msg       Message
}

func (b *nodeBank) ActRange(slot int64, lo, hi int, acts []Action) {
	for u := lo; u < hi; u++ {
		acts[u] = b.protocols[u].Act(slot)
	}
}

func (b *nodeBank) ObserveRange(slot int64, lo, hi int, deliveries []Delivery) {
	for u := lo; u < hi; u++ {
		d := &deliveries[u]
		if d.From < 0 {
			b.protocols[u].Observe(slot, nil)
			continue
		}
		b.msg.From, b.msg.Data = d.From, d.Data
		b.protocols[u].Observe(slot, &b.msg)
	}
}

// RangeDispatch reports whether the protocols supplied one shared bank
// (every protocol is a RangeNode view into it) rather than running
// through the per-node adapter. Diagnostic only — both are
// byte-identical.
func (e *Engine) RangeDispatch() bool {
	_, perNode := e.bank.(*nodeBank)
	return !perNode
}

// allLive reports whether every node is guaranteed live this slot: no
// topology feed (so nothing is ever down) and no protocol done yet.
// The phases use it to skip run detection and per-node state checks —
// on a static engine this is the whole pre-completion lifetime of a
// run, i.e. the hot path.
func (e *Engine) allLive() bool { return e.topo == nil && e.nDone == 0 }

// collect is the collect phase: one ActRange per maximal run of live
// nodes fills e.acts, and the run's actions are folded into the SoA
// hot state right after the call, while they are still cache-hot. The
// fold stays out of the bank's own loop so the ABI implementation
// remains a tight pass over flat per-node state.
//
// The fold also classifies every node: it counts idle/broadcast/listen
// (and down) node-slots straight into the stats, appends broadcasters
// to buf (the index phase's input) and listeners to e.listenBuf, so
// resolve visits only the listeners instead of rescanning every node's
// kind. State cannot change between the two phases (applyTopology and
// refreshDone run outside them), so the collect-time classification is
// exactly what resolve would recompute.
func (e *Engine) collect(buf []int32) []int32 {
	n := len(e.protocols)
	e.nListen = 0
	if e.allLive() {
		e.bank.ActRange(e.slot, 0, n, e.acts)
		return e.fold(0, n, buf)
	}
	state := e.state
	kind := e.kind
	var downs int64
	for u := 0; u < n; {
		if state[u] != nodeLive {
			if state[u] == nodeDown {
				downs++
			}
			kind[u] = Idle
			u++
			continue
		}
		lo := u
		for u < n && state[u] == nodeLive {
			u++
		}
		e.bank.ActRange(e.slot, lo, u, e.acts)
		buf = e.fold(lo, u, buf)
	}
	e.stats.DownSlots += downs
	return buf
}

// fold copies the actions of live nodes [lo, hi) into the SoA hot
// state. The flat label table replaces Global's per-call guards with
// one validity compare (falling back to Global for the loud
// out-of-range panic, and everywhere when the assignment has no flat
// table: fc is 0 then). An invalid action kind panics here.
func (e *Engine) fold(lo, hi int, buf []int32) []int32 {
	acts := e.acts
	kind := e.kind
	data := e.data
	globalCh := e.globalCh
	listenBuf := e.listenBuf
	assign := e.nw.Assign
	flat, fc := assign.Flat()
	listens := e.nListen
	var idles, bcasts int64
	for v := lo; v < hi; v++ {
		// Field loads through a pointer, not a struct copy: the Idle
		// case then touches one byte of the 32-byte Action instead of
		// copying all of it.
		a := &acts[v]
		k := a.Kind
		kind[v] = k
		switch k {
		case Idle:
			idles++
			continue
		case Broadcast:
			bcasts++
			data[v] = a.Data
			buf = append(buf, int32(v))
		case Listen:
			listenBuf[listens] = int32(v)
			listens++
		default:
			panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", v, k))
		}
		if uint(a.Ch) < uint(fc) {
			globalCh[v] = flat[v*fc+a.Ch]
		} else {
			globalCh[v] = assign.Global(v, a.Ch)
		}
	}
	e.stats.Idles += idles
	e.stats.Broadcasts += bcasts
	e.stats.Listens += int64(listens - e.nListen)
	e.nListen = listens
	return buf
}

// resolve is the resolve/observe phase: it consults the channel index
// to decide what each listener collect recorded hears, writes the
// outcomes into e.deliv, then makes one ObserveRange per maximal run
// of live nodes. Resolution reads only the channel index and the
// topology, both immutable during the phase, so deferring the
// observes to the end cannot change any resolution; traces fire per
// delivery in ascending listener order, before the slot's observes.
//
// e.deliv holds From=-1 for every node outside this phase (set up at
// construction), so only actual deliveries are written before the
// ObserveRange calls — and only those entries are reset to -1 (and
// nil Data) afterwards. Most node-slots hear nothing; paying one
// 24-byte store per delivery instead of one per live node matters.
func (e *Engine) resolve() {
	g := e.g
	jam := e.nw.Jammer
	dynamic := e.topo != nil
	slot := e.slot
	kind := e.kind
	data := e.data
	globalCh := e.globalCh
	chCount := e.chCount
	chHead := e.chHead
	bcastNext := e.bcastNext
	nbr := e.nbr
	rowOf := e.rowOf
	rowBuf := e.rowBuf
	stride := e.rowStride
	deliv := e.deliv
	delivIdx := e.delivIdx
	listeners := e.listenBuf[:e.nListen]
	trace := e.trace
	var deliveries, collisions, jammedL, plosses int64
	// The first loop is the specialized steady-state body — no jammer,
	// static topology, no trace — so none of those per-listener flag
	// checks sit on the hot path; anything else drops to the general
	// loop below, which is the same resolution with the full checks.
	if jam == nil && !dynamic && trace == nil {
		for _, u32 := range listeners {
			u := int(u32)
			ch := globalCh[u]
			cnt := chCount[ch]
			if cnt == 0 {
				// Nobody anywhere broadcast on this channel.
				continue
			}
			talkers := 0
			var from int32 = -1
			if ri := rowOf[ch]; ri >= 0 {
				// Dense channel: resolve the whole channel with one
				// AND/popcount sweep of the listener's adjacency row
				// against the channel's broadcaster row.
				row := rowBuf[int(ri)*stride : (int(ri)+1)*stride]
				c, sole := bitset.AndCountSole(nbr.Row(u), row)
				talkers = c
				from = int32(sole)
			} else if nbrs := g.Neighbors(u); int(cnt) <= len(nbrs) {
				// Walk the channel's broadcaster list (covers the
				// sole-talker case with a single adjacency probe).
				if nbr != nil {
					for v := chHead[ch]; v >= 0; v = bcastNext[v] {
						if nbr.Get(u, int(v)) {
							talkers++
							if talkers > 1 {
								break
							}
							from = v
						}
					}
				} else {
					for v := chHead[ch]; v >= 0; v = bcastNext[v] {
						if g.Adjacent(u, int(v)) {
							talkers++
							if talkers > 1 {
								break
							}
							from = v
						}
					}
				}
			} else {
				// More broadcasters on the channel than the listener
				// has neighbors: walk the neighbor list instead.
				for _, v := range nbrs {
					if kind[v] == Broadcast && globalCh[v] == ch {
						talkers++
						if talkers > 1 {
							break
						}
						from = v
					}
				}
			}
			switch {
			case talkers == 1:
				delivIdx[deliveries] = int32(u)
				deliveries++
				deliv[u] = Delivery{From: NodeID(from), Data: data[from]}
			case talkers > 1:
				collisions++
			}
		}
		goto observe
	}
	for _, u32 := range listeners {
		u := int(u32)
		ch := globalCh[u]
		if jam != nil && jam.Jammed(slot, ch) {
			jammedL++
			continue
		}
		cnt := chCount[ch]
		if cnt == 0 {
			continue
		}
		talkers := 0
		var from int32 = -1
		var row []uint64
		if ri := rowOf[ch]; ri >= 0 {
			row = rowBuf[int(ri)*stride : (int(ri)+1)*stride]
			c, sole := bitset.AndCountSole(nbr.Row(u), row)
			talkers = c
			from = int32(sole)
		} else if nbrs := g.Neighbors(u); int(cnt) <= len(nbrs) {
			if nbr != nil {
				for v := chHead[ch]; v >= 0; v = bcastNext[v] {
					if nbr.Get(u, int(v)) {
						talkers++
						if talkers > 1 {
							break
						}
						from = v
					}
				}
			} else {
				for v := chHead[ch]; v >= 0; v = bcastNext[v] {
					if g.Adjacent(u, int(v)) {
						talkers++
						if talkers > 1 {
							break
						}
						from = v
					}
				}
			}
		} else {
			for _, v := range nbrs {
				if kind[v] == Broadcast && globalCh[v] == ch {
					talkers++
					if talkers > 1 {
						break
					}
					from = v
				}
			}
		}
		if dynamic && !e.sameAsBase(u) {
			// Partition-loss counterfactual: would the base (static)
			// topology have delivered a frame this listener-slot does
			// not deliver? Resolves the same broadcaster set against
			// base adjacency — dynamics-only cost, early exit at 2,
			// skipped outright (sameAsBase) when nothing incident to
			// the listener has churned, since then both resolutions
			// are identical by construction.
			baseTalkers := 0
			var baseFrom int32 = -1
			if row != nil && e.baseNbr != nil {
				c, sole := bitset.AndCountSole(e.baseNbr.Row(u), row)
				baseTalkers, baseFrom = c, int32(sole)
			} else {
				for v := chHead[ch]; v >= 0; v = bcastNext[v] {
					if e.baseAdjacent(u, v) {
						baseTalkers++
						if baseTalkers > 1 {
							break
						}
						baseFrom = v
					}
				}
			}
			if baseTalkers == 1 && (talkers != 1 || from != baseFrom) {
				plosses++
			}
		}
		switch {
		case talkers == 1:
			delivIdx[deliveries] = int32(u)
			deliveries++
			deliv[u] = Delivery{From: NodeID(from), Data: data[from]}
			if trace != nil {
				e.traceMsg.From = NodeID(from)
				e.traceMsg.Data = data[from]
				trace(slot, NodeID(u), ch, &e.traceMsg)
			}
		case talkers > 1:
			collisions++
		}
	}
observe:
	if n := len(e.protocols); e.allLive() {
		e.bank.ObserveRange(slot, 0, n, deliv)
	} else {
		state := e.state
		for u := 0; u < n; {
			if state[u] != nodeLive {
				u++
				continue
			}
			lo := u
			for u < n && state[u] == nodeLive {
				u++
			}
			e.bank.ObserveRange(slot, lo, u, deliv)
		}
	}
	// Restore the From=-1 invariant (and drop payload references) on
	// exactly the entries this slot delivered into.
	for _, u := range delivIdx[:deliveries] {
		deliv[u] = Delivery{From: -1}
	}
	e.stats.Deliveries += deliveries
	e.stats.Collisions += collisions
	e.stats.JammedListens += jammedL
	e.stats.PartitionLosses += plosses
}
