package propagation

import (
	"fmt"
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/isa"
)

// This file is a deliberately naive reference for Analyze: every victim
// resolution scans all recorded nodes, every consumer lookup scans the
// register's whole writer and reader lists, and the taint expansion keeps
// its state in maps. It is the analysis as first written, kept so the
// indexed implementation can be checked against it trace for trace.

// refAnalysis is the reference's dataflow index.
type refAnalysis struct {
	t         *Tracer
	opt       Options
	regWrites map[int32][]int
	regReads  map[int32][]int
	fwdOut    map[int][]int
	memOut    map[int][]int
	sets      [][]touch
}

// ReferenceAnalyze runs the naive reference analysis over the tracer's
// nodes and aggregates the traces the same way Analyze does.
func ReferenceAnalyze(t *Tracer, strikes []inject.Strike) *Atlas {
	a := refBuild(t)
	atlas := NewAtlas(t.threads)
	for _, st := range strikes {
		atlas.Add(a.trace(st))
	}
	return atlas
}

func refBuild(t *Tracer) *refAnalysis {
	a := &refAnalysis{
		t:         t,
		opt:       t.opt,
		regWrites: map[int32][]int{},
		regReads:  map[int32][]int{},
		fwdOut:    map[int][]int{},
		memOut:    map[int][]int{},
	}
	if t.dl1.Size > 0 {
		a.sets = make([][]touch, t.dl1.Sets())
	}
	touchSet := func(addr uint64, tc touch) {
		if len(a.sets) > 0 {
			set := int(addr/uint64(t.dl1.LineSize)) % len(a.sets)
			a.sets[set] = append(a.sets[set], tc)
		}
	}
	fwdStores := map[wordKey][]int{}
	memStores := map[wordKey][]int{}
	var loads []int
	for i := 0; i < t.n; i++ {
		n := t.node(i)
		if n.executed && n.physDest >= 0 {
			a.regWrites[n.physDest] = append(a.regWrites[n.physDest], i)
		}
		if n.issued {
			if n.physSrc1 >= 0 {
				a.regReads[n.physSrc1] = append(a.regReads[n.physSrc1], i)
			}
			if n.physSrc2 >= 0 && n.physSrc2 != n.physSrc1 {
				a.regReads[n.physSrc2] = append(a.regReads[n.physSrc2], i)
			}
		}
		switch n.class {
		case isa.Store:
			if n.executed {
				fwdStores[n.word()] = append(fwdStores[n.word()], i)
			}
			if n.committed() {
				memStores[n.word()] = append(memStores[n.word()], i)
				touchSet(n.addr, touch{n.retire, i})
			}
		case isa.Load:
			if n.issued {
				loads = append(loads, i)
				if !n.forwarded {
					touchSet(n.addr, touch{n.issueAt, i})
				}
			}
		}
	}
	less := func(idxs []int, key func(*node) uint64) {
		sort.Slice(idxs, func(x, y int) bool {
			nx, ny := t.node(idxs[x]), t.node(idxs[y])
			if key(nx) != key(ny) {
				return key(nx) < key(ny)
			}
			return nx.gseq < ny.gseq
		})
	}
	for _, idxs := range a.regWrites {
		less(idxs, func(n *node) uint64 { return n.ready })
	}
	for _, idxs := range a.regReads {
		less(idxs, func(n *node) uint64 { return n.issueAt })
	}
	for _, idxs := range fwdStores {
		less(idxs, func(*node) uint64 { return 0 })
	}
	for _, idxs := range memStores {
		less(idxs, func(n *node) uint64 { return n.retire })
	}
	for s := range a.sets {
		sort.Slice(a.sets[s], func(x, y int) bool {
			tx, ty := a.sets[s][x], a.sets[s][y]
			if tx.cycle != ty.cycle {
				return tx.cycle < ty.cycle
			}
			return tx.idx < ty.idx
		})
	}
	for _, li := range loads {
		ld := t.node(li)
		best := -1
		if ld.forwarded {
			for _, si := range fwdStores[ld.word()] {
				st := t.node(si)
				if st.gseq >= ld.gseq {
					break
				}
				if st.ready <= ld.issueAt {
					best = si
				}
			}
			if best >= 0 {
				a.fwdOut[best] = append(a.fwdOut[best], li)
			}
			continue
		}
		for _, si := range memStores[ld.word()] {
			if t.node(si).retire > ld.issueAt {
				break
			}
			best = si
		}
		if best >= 0 {
			a.memOut[best] = append(a.memOut[best], li)
		}
	}
	return a
}

// consumers scans the writer list for wi and the whole reader list.
func (a *refAnalysis) consumers(phys int32, wi int) []int {
	writers := a.regWrites[phys]
	pos := -1
	for p, idx := range writers {
		if idx == wi {
			pos = p
			break
		}
	}
	if pos < 0 {
		return nil
	}
	w := a.t.node(wi)
	limit := ^uint64(0)
	if pos+1 < len(writers) {
		limit = a.t.node(writers[pos+1]).ready
	}
	var out []int
	for _, ri := range a.regReads[phys] {
		r := a.t.node(ri)
		if r.issueAt < w.ready {
			continue
		}
		if r.issueAt >= limit {
			break
		}
		out = append(out, ri)
	}
	return out
}

// resolve scans every node for the strike's candidates.
func (a *refAnalysis) resolve(st inject.Strike) (int, []seed, bool) {
	t := a.t
	var cands []int
	switch st.Struct {
	case avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU:
		si := spanIndex(st.Struct)
		for i := 0; i < t.n; i++ {
			n := t.node(i)
			sp := n.spans[si]
			if int(n.tid) == st.TID && sp.end > sp.start && sp.start <= st.Cycle && st.Cycle < sp.end {
				cands = append(cands, i)
			}
		}
	case avf.Reg:
		for i := 0; i < t.n; i++ {
			n := t.node(i)
			if int(n.tid) != st.TID || !n.executed || n.physDest < 0 || n.ready > st.Cycle {
				continue
			}
			for _, ri := range a.consumers(n.physDest, i) {
				if t.node(ri).issueAt >= st.Cycle {
					cands = append(cands, i)
					break
				}
			}
		}
	case avf.DL1Data, avf.DL1Tag:
		var lineBits uint64
		if st.Struct == avf.DL1Data {
			lineBits = uint64(t.dl1.LineSize) * 8
		} else {
			lineBits = uint64(t.dl1.TagBits())
		}
		if len(a.sets) == 0 || lineBits == 0 {
			return -1, nil, false
		}
		touches := a.sets[int(st.Bit/lineBits)%len(a.sets)]
		victim, anyPrior := -1, -1
		for _, tc := range touches {
			if tc.cycle > st.Cycle {
				break
			}
			anyPrior = tc.idx
			if int(t.node(tc.idx).tid) == st.TID {
				victim = tc.idx
			}
		}
		if victim < 0 {
			victim = anyPrior
		}
		if victim < 0 {
			return -1, nil, false
		}
		var seeds []seed
		seen := map[int32]bool{}
		for _, tc := range touches {
			if tc.cycle <= st.Cycle {
				continue
			}
			tid := t.node(tc.idx).tid
			if seen[tid] || tc.idx == victim {
				continue
			}
			seen[tid] = true
			typ := EdgeMemory
			if int(tid) != st.TID {
				typ = EdgeCrossThread
			}
			seeds = append(seeds, seed{idx: tc.idx, typ: typ, cycle: tc.cycle})
		}
		return victim, seeds, true
	default:
		return -1, nil, false
	}
	if len(cands) == 0 {
		return -1, nil, false
	}
	sort.Slice(cands, func(x, y int) bool { return t.node(cands[x]).gseq < t.node(cands[y]).gseq })
	return cands[int(st.ThreadBit%uint64(len(cands)))], nil, true
}

// trace is the map-based breadth-first taint expansion.
func (a *refAnalysis) trace(st inject.Strike) Trace {
	t := a.t
	tr := Trace{
		V: SchemaVersion, Struct: st.Struct.String(), Cycle: st.Cycle, Bit: st.Bit,
		TID: st.TID, Outcome: st.Outcome.String(), RootTID: -1, CommitHop: -1,
	}
	if !st.Outcome.Corrupting() {
		tr.Terminal = TerminalMasked
		return tr
	}
	victim, seeds, ok := a.resolve(st)
	if ok {
		v := t.node(victim)
		tr.Resolved, tr.RootTID, tr.RootPC, tr.RootOp = true, int(v.tid), v.pc, v.class.String()
	}
	switch {
	case st.Outcome == inject.DUE:
		tr.Terminal = TerminalDUE
		return tr
	case st.Outcome == inject.Corrected:
		tr.Terminal = TerminalCorrected
		return tr
	case !ok:
		tr.Terminal = TerminalSDC
		return tr
	}
	hops := map[int]int{victim: 0}
	queue := []int{victim}
	tr.Tainted = 1
	edge := func(from, to int, typ string, cycle uint64) {
		if _, seen := hops[to]; seen {
			return
		}
		if len(hops) >= a.opt.MaxNodes {
			tr.Truncated = true
			return
		}
		h := hops[from] + 1
		hops[to] = h
		queue = append(queue, to)
		tr.Tainted++
		if tr.Edges == nil {
			tr.Edges, tr.Pairs = map[string]int{}, map[string]int{}
		}
		tr.Edges[typ]++
		tr.Depth = max(tr.Depth, h)
		fn, tn := t.node(from), t.node(to)
		if fn.tid != tn.tid {
			tr.CrossThread++
		}
		tr.Pairs[fmt.Sprintf("%d>%d", fn.tid, tn.tid)]++
		if len(tr.Hops) < a.opt.MaxRecordedHops {
			tr.Hops = append(tr.Hops, Hop{Hop: h, Type: typ, FromTID: int(fn.tid), FromPC: fn.pc,
				ToTID: int(tn.tid), ToPC: tn.pc, Cycle: cycle})
		}
	}
	for _, s := range seeds {
		edge(victim, s.idx, s.typ, s.cycle)
	}
	for qi := 0; qi < len(queue); qi++ {
		ni := queue[qi]
		if hops[ni] >= a.opt.MaxHops {
			continue
		}
		n := t.node(ni)
		if n.executed && n.physDest >= 0 {
			for _, ri := range a.consumers(n.physDest, ni) {
				edge(ni, ri, EdgeReg, t.node(ri).issueAt)
			}
		}
		if n.class != isa.Store {
			continue
		}
		for _, li := range a.fwdOut[ni] {
			edge(ni, li, EdgeForward, t.node(li).issueAt)
		}
		for _, li := range a.memOut[ni] {
			edge(ni, li, EdgeMemory, t.node(li).issueAt)
		}
		if n.committed() && len(a.sets) > 0 {
			seen := map[int32]bool{n.tid: true}
			for _, tc := range a.sets[int(n.addr/uint64(t.dl1.LineSize))%len(a.sets)] {
				if tc.cycle <= n.retire || seen[t.node(tc.idx).tid] {
					continue
				}
				seen[t.node(tc.idx).tid] = true
				edge(ni, tc.idx, EdgeCrossThread, tc.cycle)
			}
		}
	}
	for idx, h := range hops {
		if t.node(idx).fate == avf.FateCommitted && (tr.CommitHop < 0 || h < tr.CommitHop) {
			tr.CommitHop = h
		}
	}
	if tr.CommitHop >= 0 {
		tr.Terminal = TerminalSDC
	} else {
		tr.Terminal = TerminalMasked
	}
	return tr
}
