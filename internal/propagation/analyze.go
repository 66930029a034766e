package propagation

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"smtavf/internal/avf"
	"smtavf/internal/inject"
	"smtavf/internal/isa"
)

// wordKey addresses memory dataflow at the cache's 8-byte word
// granularity. Thread address spaces are disjoint, so the tid is
// redundant with the word — it is kept as a guard against generator
// overlap.
type wordKey struct {
	tid  int32
	word uint64
}

func (n *node) word() wordKey { return wordKey{n.tid, n.addr >> 3} }

// touch is one access to a DL1 set: a load reading the array at issue, or
// a committed store writing it at retire.
type touch struct {
	cycle uint64
	idx   int // node index
}

// analysis is the dataflow index built once per Analyze call: who writes
// and reads each physical register, which store satisfied each load (by
// forwarding or through memory), and who touched each DL1 set when. It
// also owns the per-strike scratch state, reused across strikes.
type analysis struct {
	t   *Tracer
	opt Options

	regWrites [][]int       // phys reg -> executed writers, by (writeback, gseq)
	regReads  [][]int       // phys reg -> issued readers, by (issue cycle, gseq)
	wpos      []int32       // writer node -> its position in regWrites[physDest]
	fwdOut    map[int][]int // store node -> loads it forwarded to
	memOut    map[int][]int // store node -> loads that read it through memory
	sets      [][]touch     // DL1 set -> touches, by cycle

	// Victim windows per span structure (spanStructs order): a node
	// resident in the structure at cycle c retires in
	// [c+1-after, c+before], so a strike scans only that retire range.
	before, after [len(spanStructs)]uint64

	pairs [][]string // pairs[from][to] is the Trace.Pairs key "from>to"

	// Per-strike scratch.
	hops  []int32 // node -> taint hop depth, -1 when untainted
	queue []int   // BFS order of the tainted nodes
	cands []int   // victim candidates
	seeds []seed  // DL1 strike seeds
	seen  []bool  // per-thread first-touch marks
}

// build indexes the tracer's nodes. Every list is sorted by explicit keys
// so the whole analysis is deterministic. Nodes must arrive in retire
// order (the processor records each one at the cycle it retires); build
// asserts it, since victim resolution binary-searches on it.
func (t *Tracer) build() *analysis {
	a := &analysis{
		t:      t,
		opt:    t.opt,
		fwdOut: make(map[int][]int),
		memOut: make(map[int][]int),
	}
	if t.dl1.Size > 0 {
		a.sets = make([][]touch, t.dl1.Sets())
	}
	regs, threads := 0, max(t.threads, 1)
	var prevRetire uint64
	for i := 0; i < t.n; i++ {
		n := t.node(i)
		if n.retire < prevRetire {
			panic(fmt.Sprintf("propagation: node %d (tid %d, gseq %d) retires at cycle %d, after a node retiring at %d: nodes must be recorded in retire order",
				i, n.tid, n.gseq, n.retire, prevRetire))
		}
		prevRetire = n.retire
		for k, sp := range n.spans {
			if sp.end <= sp.start {
				continue
			}
			if sp.start < n.retire {
				a.before[k] = max(a.before[k], n.retire-sp.start)
			}
			if sp.end > n.retire {
				a.after[k] = max(a.after[k], sp.end-n.retire)
			}
		}
		regs = max(regs, int(n.physDest)+1, int(n.physSrc1)+1, int(n.physSrc2)+1)
		threads = max(threads, int(n.tid)+1)
	}
	a.regWrites = make([][]int, regs)
	a.regReads = make([][]int, regs)
	a.wpos = make([]int32, t.n)
	a.hops = make([]int32, t.n)
	for i := range a.hops {
		a.hops[i] = -1
	}
	a.seen = make([]bool, threads)
	a.pairs = make([][]string, threads)
	for from := range a.pairs {
		a.pairs[from] = make([]string, threads)
		for to := range a.pairs[from] {
			a.pairs[from][to] = fmt.Sprintf("%d>%d", from, to)
		}
	}
	// Store lists per word for load matching.
	fwdStores := make(map[wordKey][]int) // executed stores, by gseq
	memStores := make(map[wordKey][]int) // committed stores, by (retire, gseq)
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
				a.touchSet(n.addr, touch{n.retire, i})
			}
		case isa.Load:
			if n.issued {
				loads = append(loads, i)
				if !n.forwarded {
					// Wrong-path loads access the DL1 too.
					a.touchSet(n.addr, touch{n.issueAt, i})
				}
			}
		}
	}
	for _, idxs := range a.regWrites {
		slices.SortFunc(idxs, func(x, y int) int {
			nx, ny := t.node(x), t.node(y)
			return cmp.Or(cmp.Compare(nx.ready, ny.ready), cmp.Compare(nx.gseq, ny.gseq))
		})
		for p, wi := range idxs {
			a.wpos[wi] = int32(p)
		}
	}
	for _, idxs := range a.regReads {
		slices.SortFunc(idxs, func(x, y int) int {
			nx, ny := t.node(x), t.node(y)
			return cmp.Or(cmp.Compare(nx.issueAt, ny.issueAt), cmp.Compare(nx.gseq, ny.gseq))
		})
	}
	for _, idxs := range fwdStores {
		slices.SortFunc(idxs, func(x, y int) int {
			return cmp.Compare(t.node(x).gseq, t.node(y).gseq)
		})
	}
	for _, idxs := range memStores {
		slices.SortFunc(idxs, func(x, y int) int {
			nx, ny := t.node(x), t.node(y)
			return cmp.Or(cmp.Compare(nx.retire, ny.retire), cmp.Compare(nx.gseq, ny.gseq))
		})
	}
	for _, touches := range a.sets {
		slices.SortFunc(touches, func(x, y touch) int {
			return cmp.Or(cmp.Compare(x.cycle, y.cycle), cmp.Compare(x.idx, y.idx))
		})
	}
	// Match every load to the store it observed, mirroring the LSQ and
	// cache semantics: forwarded loads take the youngest older executed
	// same-word store (lsq.ForwardCheck); the rest read the latest store
	// committed before their DL1 access.
	for _, li := range loads {
		ld := t.node(li)
		if ld.forwarded {
			stores := fwdStores[ld.word()]
			older := sort.Search(len(stores), func(p int) bool { return t.node(stores[p]).gseq >= ld.gseq })
			for p := older - 1; p >= 0; p-- {
				if t.node(stores[p]).ready <= ld.issueAt {
					a.fwdOut[stores[p]] = append(a.fwdOut[stores[p]], li)
					break
				}
			}
			continue
		}
		stores := memStores[ld.word()]
		if p := sort.Search(len(stores), func(p int) bool { return t.node(stores[p]).retire > ld.issueAt }); p > 0 {
			a.memOut[stores[p-1]] = append(a.memOut[stores[p-1]], li)
		}
	}
	return a
}

// touchSet logs one DL1 access into the set the address maps to.
func (a *analysis) touchSet(addr uint64, tc touch) {
	if len(a.sets) == 0 {
		return
	}
	set := int(addr/uint64(a.t.dl1.LineSize)) % len(a.sets)
	a.sets[set] = append(a.sets[set], tc)
}

// strikeSet maps a struck DL1 bit to its set. Lines are laid out
// set-interleaved: line index Bit/lineBits runs over the Sets*Ways lines
// with consecutive lines in consecutive sets, so set = line mod Sets —
// the same modeling granularity the campaign's capacity math uses.
func (a *analysis) strikeSet(st inject.Strike) (int, bool) {
	if len(a.sets) == 0 {
		return 0, false
	}
	var lineBits uint64
	switch st.Struct {
	case avf.DL1Data:
		lineBits = uint64(a.t.dl1.LineSize) * 8
	case avf.DL1Tag:
		lineBits = uint64(a.t.dl1.TagBits())
	default:
		return 0, false
	}
	if lineBits == 0 {
		return 0, false
	}
	return int(st.Bit/lineBits) % len(a.sets), true
}

// consumers returns the readers a write of phys by writer node wi would
// wake: reads issuing at or after the writeback, before the register's
// next reallocation (approximated by the next writeback to the same
// physical register). The result is a sub-slice of the register's read
// list, sorted by issue cycle; callers must not modify it.
func (a *analysis) consumers(phys int32, wi int) []int {
	t := a.t
	writers, reads := a.regWrites[phys], a.regReads[phys]
	pos := int(a.wpos[wi])
	from := t.node(wi).ready
	lo := sort.Search(len(reads), func(p int) bool { return t.node(reads[p]).issueAt >= from })
	hi := len(reads)
	if pos+1 < len(writers) {
		limit := t.node(writers[pos+1]).ready
		hi = lo + sort.Search(hi-lo, func(p int) bool { return t.node(reads[lo+p]).issueAt >= limit })
	}
	return reads[lo:hi]
}

// resolve identifies the victim uop of a corrupting strike, plus the
// initial contamination hops for array strikes (the accesses that read a
// struck DL1 set after the strike). The strike's ThreadBit picks
// deterministically among equally-resident candidates. The returned seeds
// alias analysis scratch, valid until the next resolve.
func (a *analysis) resolve(st inject.Strike) (victim int, seeds []seed, ok bool) {
	t := a.t
	switch st.Struct {
	case avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU:
		// Only nodes retiring inside the structure's residency window
		// around the strike cycle can cover it.
		k := spanIndex(st.Struct)
		lo := st.Cycle + 1 - min(a.after[k], st.Cycle+1)
		hi := st.Cycle + min(a.before[k], ^uint64(0)-st.Cycle)
		a.cands = a.cands[:0]
		for i := sort.Search(t.n, func(i int) bool { return t.node(i).retire >= lo }); i < t.n; i++ {
			n := t.node(i)
			if n.retire > hi {
				break
			}
			if int(n.tid) != st.TID {
				continue
			}
			sp := n.spans[k]
			if sp.end > sp.start && sp.start <= st.Cycle && st.Cycle < sp.end {
				a.cands = append(a.cands, i)
			}
		}
		return a.pickByGSeq(st.ThreadBit)
	case avf.Reg:
		// The register file's ACE window runs from the write to the last
		// read. A register's live windows do not overlap, so only its last
		// writer by the strike cycle can be live: every earlier writer's
		// reads end before the next writeback, at or before the strike.
		a.cands = a.cands[:0]
		for phys, writers := range a.regWrites {
			p := sort.Search(len(writers), func(p int) bool { return t.node(writers[p]).ready > st.Cycle }) - 1
			if p < 0 || int(t.node(writers[p]).tid) != st.TID {
				continue
			}
			rs := a.consumers(int32(phys), writers[p])
			if len(rs) > 0 && t.node(rs[len(rs)-1]).issueAt >= st.Cycle {
				a.cands = append(a.cands, writers[p])
			}
		}
		return a.pickByGSeq(st.ThreadBit)
	case avf.DL1Data, avf.DL1Tag:
		set, mapped := a.strikeSet(st)
		if !mapped {
			return -1, nil, false
		}
		touches := a.sets[set]
		after := sort.Search(len(touches), func(p int) bool { return touches[p].cycle > st.Cycle })
		if after == 0 {
			return -1, nil, false
		}
		// Victim: the struck thread's last access to the set before the
		// strike (falling back to any thread's — the line may be resident
		// long after its owner's access).
		victim = touches[after-1].idx
		for p := after - 1; p >= 0; p-- {
			if int(t.node(touches[p].idx).tid) == st.TID {
				victim = touches[p].idx
				break
			}
		}
		// Initial hops: the first access each thread makes to the
		// corrupted set after the strike — same-thread reads re-consume
		// the datum (memory), other threads are contaminated through the
		// shared array (cross_thread).
		a.seeds = a.seeds[:0]
		for _, tc := range touches[after:] {
			tid := t.node(tc.idx).tid
			if a.seen[tid] || tc.idx == victim {
				continue
			}
			a.seen[tid] = true
			typ := EdgeMemory
			if int(tid) != st.TID {
				typ = EdgeCrossThread
			}
			a.seeds = append(a.seeds, seed{idx: tc.idx, typ: typ, cycle: tc.cycle})
		}
		clear(a.seen)
		return victim, a.seeds, true
	default:
		// ITLB/DTLB strikes corrupt translations, not tracked dataflow.
		return -1, nil, false
	}
}

// seed is an initial hop-1 contamination edge attached during victim
// resolution (DL1 set strikes).
type seed struct {
	idx   int
	typ   string
	cycle uint64
}

// pickByGSeq orders the victim candidates by fetch age and lets the
// strike's ThreadBit choose — the offset within the thread's ACE share is
// uniform over resident state, so this keeps victim selection unbiased
// and deterministic.
func (a *analysis) pickByGSeq(threadBit uint64) (int, []seed, bool) {
	cands := a.cands
	if len(cands) == 0 {
		return -1, nil, false
	}
	slices.SortFunc(cands, func(x, y int) int {
		return cmp.Compare(a.t.node(x).gseq, a.t.node(y).gseq)
	})
	return cands[int(threadBit%uint64(len(cands)))], nil, true
}

// trace taint-tracks one strike through the dataflow index.
func (a *analysis) trace(st inject.Strike) Trace {
	t := a.t
	tr := Trace{
		V:         SchemaVersion,
		Struct:    st.Struct.String(),
		Cycle:     st.Cycle,
		Bit:       st.Bit,
		TID:       st.TID,
		Outcome:   st.Outcome.String(),
		RootTID:   -1,
		CommitHop: -1,
	}
	if !st.Outcome.Corrupting() {
		tr.Terminal = TerminalMasked
		return tr
	}
	victim, seeds, ok := a.resolve(st)
	if ok {
		v := t.node(victim)
		tr.Resolved = true
		tr.RootTID = int(v.tid)
		tr.RootPC = v.pc
		tr.RootOp = v.class.String()
	}
	switch st.Outcome {
	case inject.DUE:
		// Parity caught the corruption inside the structure; nothing
		// escapes, but the root still names the at-risk instruction.
		tr.Terminal = TerminalDUE
		return tr
	case inject.Corrected:
		tr.Terminal = TerminalCorrected
		return tr
	}
	if !ok {
		// An SDC verdict we cannot localize (TLB strike, or no recorded
		// resident uop); the ACE classification stands.
		tr.Terminal = TerminalSDC
		return tr
	}

	// Breadth-first taint expansion from the victim.
	a.hops[victim] = 0
	a.queue = append(a.queue[:0], victim)
	tr.Tainted = 1
	for _, s := range seeds {
		a.edge(&tr, victim, s.idx, s.typ, s.cycle)
	}
	for qi := 0; qi < len(a.queue); qi++ {
		ni := a.queue[qi]
		if int(a.hops[ni]) >= a.opt.MaxHops {
			continue
		}
		n := t.node(ni)
		if n.executed && n.physDest >= 0 {
			for _, ri := range a.consumers(n.physDest, ni) {
				a.edge(&tr, ni, ri, EdgeReg, t.node(ri).issueAt)
			}
		}
		if n.class == isa.Store {
			for _, li := range a.fwdOut[ni] {
				a.edge(&tr, ni, li, EdgeForward, t.node(li).issueAt)
			}
			for _, li := range a.memOut[ni] {
				a.edge(&tr, ni, li, EdgeMemory, t.node(li).issueAt)
			}
			// A tainted committed store also dirties its DL1 set: the
			// next access each *other* thread makes to that set after the
			// writeback crosses the shared-array boundary.
			if n.committed() && len(a.sets) > 0 {
				touches := a.sets[int(n.addr/uint64(t.dl1.LineSize))%len(a.sets)]
				after := sort.Search(len(touches), func(p int) bool { return touches[p].cycle > n.retire })
				a.seen[n.tid] = true
				for _, tc := range touches[after:] {
					tid := t.node(tc.idx).tid
					if a.seen[tid] {
						continue
					}
					a.seen[tid] = true
					a.edge(&tr, ni, tc.idx, EdgeCrossThread, tc.cycle)
				}
				clear(a.seen)
			}
		}
	}

	// Terminal: the corruption is architecturally visible only if tainted
	// work committed live (ACE). Taint confined to squashed, dead, or NOP
	// uops never reaches committed state — microarchitectural masking the
	// per-strike view refines beyond the campaign's ACE verdict. The walk
	// also resets the hop marks for the next strike.
	for _, idx := range a.queue {
		h := int(a.hops[idx])
		if t.node(idx).fate == avf.FateCommitted && (tr.CommitHop < 0 || h < tr.CommitHop) {
			tr.CommitHop = h
		}
		a.hops[idx] = -1
	}
	if tr.CommitHop >= 0 {
		tr.Terminal = TerminalSDC
	} else {
		tr.Terminal = TerminalMasked
	}
	return tr
}

// edge taints node to over a dataflow edge from the tainted node from,
// unless it is already tainted or the trace has hit its node bound.
func (a *analysis) edge(tr *Trace, from, to int, typ string, cycle uint64) {
	if a.hops[to] >= 0 {
		return
	}
	if len(a.queue) >= a.opt.MaxNodes {
		tr.Truncated = true
		return
	}
	h := a.hops[from] + 1
	a.hops[to] = h
	a.queue = append(a.queue, to)
	tr.Tainted++
	if tr.Edges == nil {
		// Lazy: traces with no edges serialize without the maps, so a
		// JSONL round trip reproduces them exactly.
		tr.Edges = map[string]int{}
		tr.Pairs = map[string]int{}
	}
	tr.Edges[typ]++
	if int(h) > tr.Depth {
		tr.Depth = int(h)
	}
	fn, tn := a.t.node(from), a.t.node(to)
	if fn.tid != tn.tid {
		tr.CrossThread++
	}
	tr.Pairs[a.pairs[fn.tid][tn.tid]]++
	if len(tr.Hops) < a.opt.MaxRecordedHops {
		tr.Hops = append(tr.Hops, Hop{
			Hop: int(h), Type: typ,
			FromTID: int(fn.tid), FromPC: fn.pc,
			ToTID: int(tn.tid), ToPC: tn.pc,
			Cycle: cycle,
		})
	}
}

// Analyze resolves and taint-tracks every strike against the recorded
// run, returning the aggregated atlas. Call after the simulation
// completes; the strikes typically come from Campaign.SampleStrikes with
// the same campaign that observed the run.
func (t *Tracer) Analyze(strikes []inject.Strike) *Atlas {
	a := t.build()
	atlas := NewAtlas(t.threads)
	for _, st := range strikes {
		atlas.Add(a.trace(st))
	}
	t.publish(atlas)
	return atlas
}

// publish pushes the atlas headline numbers to the telemetry gauges
// (every handle is a nil-receiver no-op when detached).
func (t *Tracer) publish(atlas *Atlas) {
	t.telStrikes.SetUint(uint64(atlas.Strikes))
	t.telResolved.SetUint(uint64(atlas.Resolved))
	t.telSDC.SetUint(uint64(atlas.Terminals[TerminalSDC]))
	t.telCross.SetUint(atlas.CrossEdges())
	t.telDepth.SetUint(uint64(atlas.MaxDepth))
}
