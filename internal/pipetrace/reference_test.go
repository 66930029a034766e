package pipetrace

import (
	"math/bits"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// refKey is the reference fold's aggregation key: bit-cycles of one
// structure attributed to one static instruction and fate.
type refKey struct {
	s    avf.Struct
	tid  int
	pc   uint64
	fate avf.Fate
}

// refRecorder is a deliberately naive map-keyed provenance fold: one map
// entry per (structure, thread, PC, fate), one per static instruction for
// its class and count. It mirrors the Recorder's gating, rebase clipping
// and cap accounting, but keeps no records.
type refRecorder struct {
	opt       Options
	bits      pipeline.Bits
	rebase    uint64
	kept      int
	dropped   uint64
	agg       map[refKey]uint64
	ops       map[pcID]string
	counts    map[pcID]uint64
	fateCount [avf.NumFates]uint64
}

func newRefRecorder(opt Options) *refRecorder {
	return &refRecorder{opt: opt, bits: pipeline.DefaultBits(),
		agg: map[refKey]uint64{}, ops: map[pcID]string{}, counts: map[pcID]uint64{}}
}

func (r *refRecorder) Record(u *pipeline.Uop, squashed bool) {
	if u.FetchedAt < r.opt.WindowStart || (r.opt.WindowEnd > 0 && u.FetchedAt >= r.opt.WindowEnd) {
		return
	}
	fate := u.Fate(squashed)
	r.fateCount[fate]++
	for _, res := range u.Residencies(r.bits) {
		start := max(res.Start, r.rebase)
		if res.End > start {
			r.agg[refKey{res.Struct, u.TID, u.PC, fate}] += res.Bits * (res.End - start)
		}
	}
	id := pcID{u.TID, u.PC}
	if op, ok := r.ops[id]; !ok {
		r.ops[id] = u.Class.String()
	} else if op != u.Class.String() {
		r.ops[id] = "mixed"
	}
	r.counts[id]++
	if r.opt.Cap > 0 && r.kept >= r.opt.Cap {
		r.dropped++
	} else {
		r.kept++
	}
}

func (r *refRecorder) Rebase(cycle uint64) {
	r.rebase, r.kept, r.dropped = cycle, 0, 0
	clear(r.agg)
	clear(r.ops)
	clear(r.counts)
	r.fateCount = [avf.NumFates]uint64{}
}

func (r *refRecorder) bitCycles(s avf.Struct, aceOnly bool) uint64 {
	var sum uint64
	for k, bc := range r.agg {
		if k.s == s && (!aceOnly || k.fate.ACE()) {
			sum += bc
		}
	}
	return sum
}

func (r *refRecorder) Provenance() *Provenance {
	p := &Provenance{Records: r.kept, Dropped: r.dropped, PCs: []PCProfile{}}
	byPC := map[pcID]*PCProfile{}
	for id, op := range r.ops {
		byPC[id] = &PCProfile{TID: id.tid, PC: id.pc, Op: op, Count: r.counts[id]}
	}
	fates := map[avf.Fate]*FateProfile{}
	for _, f := range avf.Fates() {
		fates[f] = &FateProfile{Fate: f, Count: r.fateCount[f]}
	}
	for k, bc := range r.agg {
		prof := byPC[pcID{k.tid, k.pc}]
		prof.Resident[k.s] += bc
		fates[k.fate].Resident[k.s] += bc
		p.TotalResident[k.s] += bc
		if k.fate.ACE() {
			prof.ACE[k.s] += bc
			p.TotalACE[k.s] += bc
		}
	}
	for _, prof := range byPC {
		p.PCs = append(p.PCs, *prof)
	}
	sort.Slice(p.PCs, func(i, j int) bool {
		a, b := &p.PCs[i], &p.PCs[j]
		if ta, tb := a.totalACE(), b.totalACE(); ta != tb {
			return ta > tb
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.PC < b.PC
	})
	for _, f := range avf.Fates() {
		p.Fates = append(p.Fates, *fates[f])
	}
	return p
}

// randomProvUop returns a uop fetched at fetch with random thread, PC,
// class and fate inputs, and random residencies, some of them zero-width.
func randomProvUop(rng *rand.Rand, gseq, fetch uint64) *pipeline.Uop {
	pc := 0x1000 + 4*rng.Uint64N(24)
	class := isa.Class(rng.IntN(isa.NumClasses))
	if pc == 0x1000 {
		// One PC is visited with two classes, so its profile is "mixed".
		class = isa.Load + isa.Class(gseq%2)
	}
	u := &pipeline.Uop{
		Instruction: isa.Instruction{PC: pc, Class: class, Dead: rng.IntN(6) == 0},
		TID:         rng.IntN(3),
		GSeq:        gseq,
		FetchedAt:   fetch,
		WrongPath:   rng.IntN(8) == 0,
	}
	span := func() (start, cycles uint64) {
		start = fetch + rng.Uint64N(20)
		if rng.IntN(4) > 0 {
			cycles = rng.Uint64N(30)
		}
		return start, cycles
	}
	u.EnterIQ, u.IQCycles = span()
	u.EnterROB, u.ROBCycles = span()
	u.EnterLSQ, u.LSQTagCycles = span()
	u.DataAt, u.LSQDataCycles = span()
	u.IssuedAt, u.FUCycles = span()
	return u
}

// TestProvenanceMatchesMapReference feeds one random uop stream into the
// Recorder and the map-keyed reference fold and requires identical
// provenance, ACE and resident bit-cycles. The stream visits one PC with
// two classes, carries zero-width intervals and intervals that end before
// a mid-stream Rebase, and is gated by a fetch window and a Cap smaller
// than the stream.
func TestProvenanceMatchesMapReference(t *testing.T) {
	for _, opt := range []Options{
		{},
		{Cap: 500},
		{WindowStart: 400, WindowEnd: 3_000, Cap: 700},
	} {
		rng := rand.New(rand.NewPCG(uint64(opt.Cap), opt.WindowStart))
		r, ref := New(opt), newRefRecorder(opt)
		const n = 4_000
		var before, mixed int
		for i := range n {
			fetch := uint64(i)
			if i == n/2 {
				r.Rebase(fetch)
				ref.Rebase(fetch)
			}
			if i >= n/2 && i%5 == 0 {
				// Fetched before the rebase: its residencies end before
				// it, or straddle it.
				fetch = n/2 - 20 - rng.Uint64N(80)
				if fetch+50 <= n/2 {
					before++
				}
			}
			u := randomProvUop(rng, uint64(i), fetch)
			if u.PC == 0x1000 && i >= n/2 {
				mixed++
			}
			squashed := rng.IntN(10) == 0
			r.Record(u, fetch+50, squashed)
			ref.Record(u, squashed)
		}
		if before == 0 || mixed < 2 {
			t.Fatalf("stream lacks pre-rebase intervals (%d) or a mixed PC (%d visits)", before, mixed)
		}
		got, want := r.Provenance(), ref.Provenance()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("options %+v: provenance differs from the map reference:\n got %+v\nwant %+v", opt, got, want)
		}
		if !hasOp(got, "mixed") {
			t.Fatalf("options %+v: no PC profile is labelled mixed", opt)
		}
		if opt.Cap > 0 && got.Dropped == 0 {
			t.Fatalf("options %+v: Cap dropped no record", opt)
		}
		for _, s := range avf.Structs() {
			if g, w := r.ACEBitCycles(s), ref.bitCycles(s, true); g != w {
				t.Errorf("options %+v: ACEBitCycles(%s) = %d, reference %d", opt, s, g, w)
			}
			if g, w := r.ResidentBitCycles(s), ref.bitCycles(s, false); g != w {
				t.Errorf("options %+v: ResidentBitCycles(%s) = %d, reference %d", opt, s, g, w)
			}
		}
	}
}

func hasOp(p *Provenance, op string) bool {
	for i := range p.PCs {
		if p.PCs[i].Op == op {
			return true
		}
	}
	return false
}

// TestRecorderRecordAllocs pins the record buffer's growth: it doubles up
// to Options.Cap, so its capacity never exceeds Cap and it is allocated
// O(log Cap) times.
func TestRecorderRecordAllocs(t *testing.T) {
	const capRecords = 100_000
	r := New(Options{Cap: capRecords})
	if cap(r.Records()) != 0 {
		t.Fatalf("New allocated a record buffer of capacity %d", cap(r.Records()))
	}
	u := uop(0, 0, 0, 0x100, isa.IntALU, 10)
	grows, last := 0, 0
	for range capRecords + 1_000 {
		r.Record(u, 30, false)
		if c := cap(r.Records()); c != last {
			grows, last = grows+1, c
		}
		if last > capRecords {
			t.Fatalf("record buffer capacity %d exceeds Cap %d", last, capRecords)
		}
	}
	if r.Len() != capRecords || r.Dropped() != 1_000 {
		t.Fatalf("Len %d Dropped %d, want %d and 1000", r.Len(), r.Dropped(), capRecords)
	}
	if limit := bits.Len(capRecords) + 1; grows > limit {
		t.Fatalf("record buffer allocated %d times for Cap %d, want at most %d", grows, capRecords, limit)
	}
}
