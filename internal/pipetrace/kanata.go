package pipetrace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

	"smtavf/internal/avf"
)

// Kanata stage labels, lane 0. The mapping from the simulator's lifecycle:
// F covers fetch through the front-end pipe, Ds the IQ wait after
// dispatch, Ex issue through writeback, Cm the ROB wait until retirement.
const (
	stageFetch    = "F"
	stageDispatch = "Ds"
	stageExecute  = "Ex"
	stageComplete = "Cm"
)

// Kanata event kinds, in the order one uop emits them. A uop's events at
// one cycle keep this order, so its I/L/S lines stay in sequence.
const (
	evIntro    = iota // I: introduce the uop
	evLabelPC         // L lane 0: PC and opcode
	evLabelAux        // L lane 1: hover detail
	evFetch           // S: F
	evDispatch        // S: Ds
	evExecute         // S: Ex
	evComplete        // S: Cm
	evRetire          // R: commit or flush
	evKindBits = 3
)

// kanataEvent is one line of the trace body: the absolute cycle it is
// scheduled at and key = uid<<evKindBits | kind. Events are built in key
// order, so a stable sort by cycle orders them by (cycle, uid, kind).
type kanataEvent struct {
	cycle uint64
	key   uint64
}

// WriteKanata writes records in the Kanata log format (version 0004), the
// pipeline-viewer format of Konata and the gem5/Onikiri2 ecosystem: one
// instruction lane per uop with stage transitions F → Ds → Ex → Cm and a
// retire line marking commit (type 0) or squash/flush (type 1). Hovering
// an instruction in Konata shows the uop's fate and residency detail.
//
// It runs in time linear in len(recs) apart from two comparison sorts of
// record indices, and allocates a fixed number of buffers however many
// records it writes (docs/performance.md, "Observer export").
func WriteKanata(w io.Writer, recs []Record) error {
	order := fetchOrder(recs) // order[uid] = record index

	// Retire ids are assigned in retirement order; rid[j] is record j's.
	rid := make([]int, len(recs))
	for i, j := range orderBy(recs, func(r *Record) uint64 { return r.Retire }) {
		rid[j] = i
	}

	n, maxTID := 0, 0
	for i := range recs {
		r := &recs[i]
		if r.TID < 0 {
			return fmt.Errorf("pipetrace: record gseq=%d has negative tid %d", r.GSeq, r.TID)
		}
		maxTID = max(maxTID, r.TID)
		n += 5 // I, two L, S F, R
		for _, reached := range [3]bool{r.Dispatch >= 0, r.Issue >= 0, showsComplete(r)} {
			if reached {
				n++
			}
		}
	}
	events := make([]kanataEvent, 0, n)
	for uid, j := range order {
		r := &recs[j]
		k := uint64(uid) << evKindBits
		events = append(events,
			kanataEvent{r.Fetch, k | evIntro},
			kanataEvent{r.Fetch, k | evLabelPC},
			kanataEvent{r.Fetch, k | evLabelAux},
			kanataEvent{r.Fetch, k | evFetch})
		if r.Dispatch >= 0 {
			events = append(events, kanataEvent{uint64(r.Dispatch), k | evDispatch})
		}
		if r.Issue >= 0 {
			events = append(events, kanataEvent{uint64(r.Issue), k | evExecute})
		}
		if showsComplete(r) {
			events = append(events, kanataEvent{uint64(r.Writeback), k | evComplete})
		}
		events = append(events, kanataEvent{r.Retire, k | evRetire})
	}
	events = sortByCycle(events)

	// I lines come out in uid order (uids follow fetch cycle, and the
	// sort keeps uid order within a cycle), so the per-thread instruction
	// counter can be advanced as they are written.
	iids := make([]int, maxTID+1)
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 256)
	cur := uint64(0)
	if len(events) > 0 {
		cur = events[0].cycle
	}
	line = append(line, "Kanata\t0004\nC=\t"...)
	line = strconv.AppendUint(line, cur, 10)
	line = append(line, '\n')
	bw.Write(line)
	for _, e := range events {
		line = line[:0]
		if e.cycle != cur {
			line = append(line, "C\t"...)
			line = strconv.AppendUint(line, e.cycle-cur, 10)
			line = append(line, '\n')
			cur = e.cycle
		}
		uid := e.key >> evKindBits
		r := &recs[order[uid]]
		switch kind := e.key & (1<<evKindBits - 1); kind {
		case evIntro:
			line = appendHead(line, 'I', uid)
			line = strconv.AppendInt(line, int64(iids[r.TID]), 10)
			iids[r.TID]++
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(r.TID), 10)
		case evLabelPC:
			line = appendHead(line, 'L', uid)
			line = append(line, "0\t0x"...)
			line = strconv.AppendUint(line, r.PC, 16)
			line = append(line, ' ')
			line = append(line, r.Op...)
		case evLabelAux:
			line = appendHead(line, 'L', uid)
			line = append(line, "1\t"...)
			line = appendKanataDetail(line, r)
		case evRetire:
			line = appendHead(line, 'R', uid)
			line = strconv.AppendInt(line, int64(rid[order[uid]]), 10)
			if r.Committed() {
				line = append(line, "\t0"...)
			} else {
				line = append(line, "\t1"...)
			}
		default:
			line = appendHead(line, 'S', uid)
			line = append(line, "0\t"...)
			line = append(line, stageNames[kind-evFetch]...)
		}
		line = append(line, '\n')
		bw.Write(line)
	}
	return bw.Flush()
}

// showsComplete reports whether the uop has a Cm stage: it wrote back
// before the cycle it retired.
func showsComplete(r *Record) bool {
	return r.Writeback >= 0 && uint64(r.Writeback) < r.Retire
}

// stageNames maps the S event kinds, from evFetch on, to stage labels.
var stageNames = [4]string{stageFetch, stageDispatch, stageExecute, stageComplete}

// appendHead appends a line's command letter and uid, each followed by a
// tab.
func appendHead(b []byte, cmd byte, uid uint64) []byte {
	b = append(b, cmd, '\t')
	b = strconv.AppendUint(b, uid, 10)
	return append(b, '\t')
}

// sortByCycle stably sorts events by cycle with an LSD radix sort on the
// offset from the earliest cycle, one byte per pass, skipping bytes every
// offset shares. It returns whichever of events and its scratch twin
// holds the result.
func sortByCycle(events []kanataEvent) []kanataEvent {
	if len(events) < 2 {
		return events
	}
	lo, hi := events[0].cycle, events[0].cycle
	for _, e := range events {
		lo, hi = min(lo, e.cycle), max(hi, e.cycle)
	}
	src, dst := events, make([]kanataEvent, len(events))
	for shift := uint(0); shift < 64 && (hi-lo)>>shift != 0; shift += 8 {
		var count [257]int
		for _, e := range src {
			count[((e.cycle-lo)>>shift)&0xff+1]++
		}
		if count[((src[0].cycle-lo)>>shift)&0xff+1] == len(src) {
			continue // every offset shares this byte
		}
		for i := 1; i < len(count); i++ {
			count[i] += count[i-1]
		}
		for _, e := range src {
			d := ((e.cycle - lo) >> shift) & 0xff
			dst[count[d]] = e
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// appendKanataDetail appends the hover text of one uop: identity, fate,
// and every non-empty residency interval.
func appendKanataDetail(b []byte, r *Record) []byte {
	b = append(b, "tid="...)
	b = strconv.AppendInt(b, int64(r.TID), 10)
	b = append(b, " gseq="...)
	b = strconv.AppendUint(b, r.GSeq, 10)
	b = append(b, " seq="...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, " fate="...)
	b = append(b, r.Fate.String()...)
	names := [5]string{"iq", "rob", "lsq_tag", "lsq_data", "fu"}
	for i, st := range RecordStructs {
		if sp := r.Span(st); sp.Cycles > 0 {
			b = append(b, ' ')
			b = append(b, names[i]...)
			b = append(b, "=["...)
			b = strconv.AppendUint(b, sp.Start, 10)
			b = append(b, ',')
			b = strconv.AppendUint(b, sp.End(), 10)
			b = append(b, ')')
		}
	}
	return b
}

// fetchOrder returns record indices sorted by fetch cycle (GSeq, then the
// index, breaks ties), the canonical display order of both viewers.
func fetchOrder(recs []Record) []int {
	return orderBy(recs, func(r *Record) uint64 { return r.Fetch })
}

// orderKey is one record's sort key, copied out of the record so the sort
// touches a compact array instead of the records themselves.
type orderKey struct {
	cycle, gseq uint64
	idx         int
}

// orderBy returns record indices sorted by cycle(record), then GSeq, then
// index — a total order, so the unstable sort is deterministic.
func orderBy(recs []Record, cycle func(*Record) uint64) []int {
	keys := make([]orderKey, len(recs))
	for i := range recs {
		keys[i] = orderKey{cycle(&recs[i]), recs[i].GSeq, i}
	}
	slices.SortFunc(keys, func(a, b orderKey) int {
		if c := cmp.Compare(a.cycle, b.cycle); c != 0 {
			return c
		}
		if c := cmp.Compare(a.gseq, b.gseq); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	order := make([]int, len(recs))
	for i, k := range keys {
		order[i] = k.idx
	}
	return order
}

// assertStructsCovered ties RecordStructs to avf.PipelineStructs at
// compile review time: both must enumerate the same five structures.
var _ = func() struct{} {
	want := map[avf.Struct]bool{}
	for _, s := range avf.PipelineStructs() {
		want[s] = true
	}
	for _, s := range RecordStructs {
		if !want[s] {
			panic("pipetrace: RecordStructs diverged from avf.PipelineStructs")
		}
	}
	return struct{}{}
}()
