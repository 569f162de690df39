package radio

import (
	"fmt"

	"crn/internal/bitset"
)

// This file defines the optional batch-aware protocol ABI: a protocol
// set backed by a shared "bank" can have its Act and Observe calls
// dispatched over whole node ranges instead of one interface call per
// node per slot. The per-node Protocol interface costs two virtual
// calls per node-slot (~1.5µs per 64-node slot, see
// BenchmarkProtocolInterfaceFloor), which dominates once the slot
// kernel itself is vectorized; a RangeProtocol amortizes that dispatch
// over a whole range with a single call, letting the implementation
// run tight loops over flat per-node state.
//
// # Detection rules
//
// The ABI is opt-in and detected per run: at construction the engine
// probes every protocol for RangeNode. Range dispatch is used iff
// every node's protocol reports the same (pointer-comparable) bank and
// its own node index within it; any mismatch — a node that does not
// implement RangeNode, a nil bank, a foreign bank, a wrong index —
// silently falls back to per-node Act/Observe dispatch. Done, and the
// optional FixedSchedule bound, remain per-node interface calls: they
// are off the hot path (refreshDone is amortized by FixedSchedule).
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

// RangeDispatch reports whether the engine selected the batch-aware
// range ABI for this run (every protocol is a RangeNode view into one
// shared bank). Diagnostic only — both dispatch modes are
// byte-identical.
func (e *Engine) RangeDispatch() bool { return e.bank != nil }

// RangeDispatch reports whether replica r runs on the batch-aware
// range ABI. Diagnostic only.
func (e *BatchEngine) RangeDispatch(r int) bool { return e.banks[r] != nil }

// allLive reports whether every node is guaranteed live this slot: no
// topology feed (so nothing is ever down) and no protocol done yet.
// The range phases use it to skip run detection and per-node state
// checks — on a static engine this is the whole pre-completion
// lifetime of a run, i.e. the hot path.
func (e *Engine) allLive() bool { return e.topo == nil && e.nDone == 0 }

// collectRange is the collect phase over [lo, hi) in range-dispatch
// mode: one ActRange per maximal run of live nodes fills e.acts, and
// the run's actions are folded into the SoA hot state right after the
// call, while they are still cache-hot. The fold stays out of the
// bank's own loop so the ABI implementation remains a tight pass over
// flat per-node state.
//
// The fold also classifies every node: it counts live idle/broadcast/
// listen nodes (and down nodes), appends listeners to e.listenBuf at
// offset lo, and stashes the four counts at e.segStats[4*lo:] for
// resolveRange, which then visits only the listeners instead of
// rescanning every node's kind. State cannot change between the two
// phases (applyTopology and refreshDone run outside them), so the
// collect-time classification is exactly what resolve would recompute.
// An invalid action kind panics here rather than in resolve; the
// message is the same.
func (e *Engine) collectRange(lo, hi int, buf []int32) []int32 {
	state := e.state
	kind := e.kind
	acts := e.acts
	slot := e.slot
	assign := e.nw.Assign
	data := e.data
	globalCh := e.globalCh
	listenBuf := e.listenBuf
	var idles, bcasts, listens, downs int64
	if e.allLive() {
		// One run, no state loads: [lo, hi) is live end to end. The
		// flat label table replaces Global's per-call guards with one
		// validity compare (falling back to Global for the loud
		// out-of-range panic).
		e.bank.ActRange(slot, lo, hi, acts)
		flat, fc := assign.Flat()
		if flat != nil {
			for v := lo; v < hi; v++ {
				// Field loads through a pointer, not a struct copy:
				// the Idle case then touches one byte of the 32-byte
				// Action instead of copying all of it.
				a := &acts[v]
				k := a.Kind
				kind[v] = k
				switch k {
				case Idle:
					idles++
				case Broadcast:
					bcasts++
					if uint(a.Ch) < uint(fc) {
						globalCh[v] = flat[v*fc+a.Ch]
					} else {
						globalCh[v] = assign.Global(v, a.Ch)
					}
					data[v] = a.Data
					buf = append(buf, int32(v))
				case Listen:
					if uint(a.Ch) < uint(fc) {
						globalCh[v] = flat[v*fc+a.Ch]
					} else {
						globalCh[v] = assign.Global(v, a.Ch)
					}
					listenBuf[lo+int(listens)] = int32(v)
					listens++
				default:
					panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", v, k))
				}
			}
		} else {
			for v := lo; v < hi; v++ {
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
					listenBuf[lo+int(listens)] = int32(v)
					listens++
				default:
					panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", v, k))
				}
				globalCh[v] = assign.Global(v, a.Ch)
			}
		}
		base := 4 * lo
		e.segStats[base] = idles
		e.segStats[base+1] = bcasts
		e.segStats[base+2] = listens
		e.segStats[base+3] = downs
		return buf
	}
	for u := lo; u < hi; {
		if state[u] != nodeLive {
			if state[u] == nodeDown {
				downs++
			}
			kind[u] = Idle
			u++
			continue
		}
		runLo := u
		for u < hi && state[u] == nodeLive {
			u++
		}
		e.bank.ActRange(slot, runLo, u, acts)
		for v := runLo; v < u; v++ {
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
				listenBuf[lo+int(listens)] = int32(v)
				listens++
			default:
				panic(fmt.Sprintf("radio: node %d returned invalid action kind %d", v, k))
			}
			globalCh[v] = assign.Global(v, a.Ch)
		}
	}
	base := 4 * lo
	e.segStats[base] = idles
	e.segStats[base+1] = bcasts
	e.segStats[base+2] = listens
	e.segStats[base+3] = downs
	return buf
}

// resolveRange is the resolve phase over [lo, hi) in range-dispatch
// mode: the same per-listener resolution as resolveAndObserve, writing
// outcomes into e.deliv instead of calling Observe per node, followed
// by one ObserveRange per maximal run of live nodes. Resolution reads
// only the channel index and the topology, both immutable during the
// phase, so deferring the observes to the end of the range cannot
// change any resolution — and traces still fire
// per delivery in ascending node order, byte-identical to per-node
// dispatch.
//
// e.deliv holds From=-1 for every node outside this phase (set up at
// construction), so only actual deliveries are written before the
// ObserveRange calls — and only those entries are reset to -1 (and
// nil Data) afterwards. Most node-slots hear nothing; paying one
// 24-byte store per delivery instead of one per live node is a large
// share of the range path's speedup over per-node dispatch.
func (e *Engine) resolveRange(lo, hi int, st *Stats, scratch *Message) {
	g := e.g
	jam := e.nw.Jammer
	dynamic := e.topo != nil
	slot := e.slot
	state := e.state
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
	listenBuf := e.listenBuf
	trace := e.trace
	live := e.allLive()
	base := 4 * lo
	idles := e.segStats[base]
	bcasts := e.segStats[base+1]
	nListen := e.segStats[base+2]
	downs := e.segStats[base+3]
	var deliveries, collisions, jammedL, plosses int64
	// collectRange already classified every node in [lo, hi); only the
	// listeners it recorded need resolution. The first loop is the
	// specialized steady-state body — no jammer, static topology, no
	// trace — so none of those per-listener flag checks sit on the hot
	// path; anything else drops to the general loop below, which is the
	// same resolution with the full checks.
	if jam == nil && !dynamic && trace == nil {
		for i := lo; i < lo+int(nListen); i++ {
			u := int(listenBuf[i])
			ch := globalCh[u]
			cnt := chCount[ch]
			if cnt == 0 {
				continue
			}
			talkers := 0
			var from int32 = -1
			if ri := rowOf[ch]; ri >= 0 {
				row := rowBuf[int(ri)*stride : (int(ri)+1)*stride]
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
			switch {
			case talkers == 1:
				delivIdx[lo+int(deliveries)] = int32(u)
				deliveries++
				deliv[u] = Delivery{From: NodeID(from), Data: data[from]}
			case talkers > 1:
				collisions++
			}
		}
		goto observe
	}
	for i := lo; i < lo+int(nListen); i++ {
		u := int(listenBuf[i])
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
			baseTalkers := 0
			var baseFrom int32 = -1
			if row != nil && e.baseNbr != nil {
				baseTalkers, baseFrom = e.baseCounterfactual(u, row)
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
			delivIdx[lo+int(deliveries)] = int32(u)
			deliveries++
			deliv[u] = Delivery{From: NodeID(from), Data: data[from]}
			if trace != nil {
				scratch.From = NodeID(from)
				scratch.Data = data[from]
				trace(slot, NodeID(u), ch, scratch)
			}
		case talkers > 1:
			collisions++
		}
	}
observe:
	if live {
		e.bank.ObserveRange(slot, lo, hi, deliv)
	} else {
		for u := lo; u < hi; {
			if state[u] != nodeLive {
				u++
				continue
			}
			runLo := u
			for u < hi && state[u] == nodeLive {
				u++
			}
			e.bank.ObserveRange(slot, runLo, u, deliv)
		}
	}
	// Restore the From=-1 invariant (and drop payload references) on
	// exactly the entries this segment delivered into.
	for i := lo; i < lo+int(deliveries); i++ {
		deliv[delivIdx[i]] = Delivery{From: -1}
	}
	st.Idles += idles
	st.Broadcasts += bcasts
	st.Listens += nListen
	st.Deliveries += deliveries
	st.Collisions += collisions
	st.JammedListens += jammedL
	st.DownSlots += downs
	st.PartitionLosses += plosses
}
