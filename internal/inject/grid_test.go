package inject

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/rng"
)

// mapCampaign is a naive reference of Campaign's sample grid: one map per
// structure from sample index to cell, rebuilt from scratch on Rebase. It
// draws strikes from the same seeded stream in the same order, so a
// Campaign fed the same intervals must agree with it exactly.
type mapCampaign struct {
	every, phase, origin uint64
	bits                 [avf.NumStructs]uint64
	cells                [avf.NumStructs]map[uint64]*cell
	protection           [avf.NumStructs]Detection
	rnd                  *rng.Source
	events               uint64
}

func newMapCampaign(bits [avf.NumStructs]uint64, every, seed uint64) *mapCampaign {
	m := &mapCampaign{every: every, bits: bits, rnd: rng.New(seed)}
	m.phase = m.rnd.Uint64n(every)
	m.Rebase(0)
	return m
}

func (m *mapCampaign) Rebase(cycle uint64) {
	m.origin = cycle
	for s := range m.cells {
		m.cells[s] = map[uint64]*cell{}
	}
}

func (m *mapCampaign) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	start = max(start, m.origin)
	if end <= start {
		return
	}
	start -= m.origin
	end -= m.origin
	m.events++
	for idx := uint64(0); m.phase+idx*m.every < end; idx++ {
		if m.phase+idx*m.every < start {
			continue
		}
		cl := m.cells[s][idx]
		if cl == nil {
			cl = &cell{}
			m.cells[s][idx] = cl
		}
		cl.occ += bits
		if ace {
			cl.ace += bits
			for len(cl.perThread) <= tid {
				cl.perThread = append(cl.perThread, 0)
			}
			cl.perThread[tid] += bits
		}
	}
}

func (m *mapCampaign) samples(cycles uint64) uint64 {
	if cycles <= m.phase {
		return 0
	}
	return (cycles-m.phase-1)/m.every + 1
}

// sums returns the ACE and occupied bit totals over the first n samples.
func (m *mapCampaign) sums(s avf.Struct, n uint64) (ace, occ uint64) {
	for idx, cl := range m.cells[s] {
		if idx < n {
			ace += cl.ace
			occ += cl.occ
		}
	}
	return ace, occ
}

func (m *mapCampaign) Estimate(s avf.Struct, cycles uint64) float64 {
	n := m.samples(cycles)
	if n == 0 || m.bits[s] == 0 {
		return 0
	}
	ace, _ := m.sums(s, n)
	return float64(ace) / (float64(n) * float64(m.bits[s]))
}

func (m *mapCampaign) Occupancy(s avf.Struct, cycles uint64) float64 {
	n := m.samples(cycles)
	if n == 0 || m.bits[s] == 0 {
		return 0
	}
	_, occ := m.sums(s, n)
	return float64(occ) / (float64(n) * float64(m.bits[s]))
}

func (m *mapCampaign) Overbooked(s avf.Struct) int {
	n := 0
	for _, cl := range m.cells[s] {
		if cl.occ > m.bits[s] {
			n++
		}
	}
	return n
}

func (m *mapCampaign) strike(s avf.Struct, samples uint64) Strike {
	idx := m.rnd.Uint64n(samples)
	bit := m.rnd.Uint64n(m.bits[s])
	st := Strike{Struct: s, SampleIdx: idx, Cycle: m.origin + m.phase + idx*m.every,
		Bit: bit, TID: -1, Outcome: Masked}
	cl := m.cells[s][idx]
	if cl == nil || bit >= cl.ace {
		return st
	}
	tid := 0
	for _, share := range cl.perThread {
		if bit < share {
			break
		}
		bit -= share
		tid++
	}
	st.TID, st.ThreadBit, st.Outcome = tid, bit, m.protection[s].outcome()
	return st
}

func (m *mapCampaign) Outcomes(s avf.Struct, cycles uint64, strikes int) (corrupted int) {
	n := m.samples(cycles)
	if n == 0 || m.bits[s] == 0 {
		return 0
	}
	for i := 0; i < strikes; i++ {
		if m.strike(s, n).Outcome.Corrupting() {
			corrupted++
		}
	}
	return corrupted
}

func (m *mapCampaign) SampleStrikes(s avf.Struct, cycles uint64, n int) []Strike {
	samples := m.samples(cycles)
	if samples == 0 || m.bits[s] == 0 || n <= 0 {
		return nil
	}
	out := make([]Strike, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, m.strike(s, samples))
	}
	return out
}

// lastBooked returns one past the highest sample index of s holding a
// cell.
func (m *mapCampaign) lastBooked(s avf.Struct) uint64 {
	var n uint64
	for idx := range m.cells[s] {
		n = max(n, idx+1)
	}
	return n
}

// TestDenseGridMatchesMapReference feeds random intervals, across a
// rebase whose measurement grid is shorter than the warmup grid, to a
// Campaign and to the map-based reference, and requires every estimate,
// overbooking count and strike to agree exactly.
func TestDenseGridMatchesMapReference(t *testing.T) {
	var capacity [avf.NumStructs]uint64
	for s := range capacity {
		capacity[s] = 600 + 100*uint64(s)
	}
	capacity[avf.DTLB] = 0 // a structure with no capacity draws nothing
	const warmEnd = 20_000
	for _, every := range []uint64{1, 3, 7, 100} {
		for seed := uint64(1); seed <= 3; seed++ {
			c, err := NewCampaign(capacity, every, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newMapCampaign(capacity, every, seed)
			var prot [avf.NumStructs]Detection
			for s := range prot {
				prot[s] = Detection((uint64(s) + seed) % 3)
			}
			c.SetProtection(prot)
			ref.protection = prot

			gen := rng.New(seed * 977)
			feed := func(count int, lo, span uint64) {
				for i := 0; i < count; i++ {
					s := avf.Struct(gen.Uint64n(avf.NumStructs))
					tid := int(gen.Uint64n(4))
					bits := 1 + gen.Uint64n(200)
					start := lo + gen.Uint64n(span)
					end := start + gen.Uint64n(400)
					ace := gen.Uint64n(3) != 0
					c.Interval(s, tid, bits, start, end, ace)
					ref.Interval(s, tid, bits, start, end, ace)
				}
			}
			// Warmup books a 20k-cycle grid; the measurement window,
			// with intervals straddling the rebase, books about 4.4k.
			feed(3000, 0, warmEnd)
			c.Rebase(warmEnd)
			ref.Rebase(warmEnd)
			feed(800, warmEnd-2_000, 6_000)

			if c.Events() != ref.events {
				t.Fatalf("every=%d seed=%d: %d events, reference %d", every, seed, c.Events(), ref.events)
			}
			pastEnd := 0
			for _, cycles := range []uint64{1_000, 4_400, warmEnd} {
				for s := avf.Struct(0); s < avf.NumStructs; s++ {
					if got, want := c.Estimate(s, cycles), ref.Estimate(s, cycles); got != want {
						t.Fatalf("every=%d seed=%d %v cycles=%d: Estimate %v, reference %v", every, seed, s, cycles, got, want)
					}
					if got, want := c.Occupancy(s, cycles), ref.Occupancy(s, cycles); got != want {
						t.Fatalf("every=%d seed=%d %v cycles=%d: Occupancy %v, reference %v", every, seed, s, cycles, got, want)
					}
					if got, want := c.Overbooked(s), ref.Overbooked(s); got != want {
						t.Fatalf("every=%d seed=%d %v: Overbooked %d, reference %d", every, seed, s, got, want)
					}
					if got, want := c.Outcomes(s, cycles, 200), ref.Outcomes(s, cycles, 200); got != want {
						t.Fatalf("every=%d seed=%d %v cycles=%d: Outcomes %d, reference %d", every, seed, s, cycles, got, want)
					}
					got, want := c.SampleStrikes(s, cycles, 200), ref.SampleStrikes(s, cycles, 200)
					if len(got) != len(want) {
						t.Fatalf("every=%d seed=%d %v cycles=%d: %d strikes, reference %d", every, seed, s, cycles, len(got), len(want))
					}
					last := ref.lastBooked(s)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("every=%d seed=%d %v cycles=%d: strike %d = %+v, reference %+v", every, seed, s, cycles, i, got[i], want[i])
						}
						if got[i].SampleIdx >= last {
							pastEnd++
							if got[i].Outcome != Masked || got[i].TID != -1 {
								t.Fatalf("strike past the last booked sample %d is not masked: %+v", last, got[i])
							}
						}
					}
				}
			}
			if pastEnd == 0 {
				t.Fatalf("every=%d seed=%d: no strike landed past the booked grid", every, seed)
			}
		}
	}
}
