// BenchmarkClassifyBatch isolates the per-uop AVF classification cost the
// commit and squash paths pay, in both accounting modes: detached (no
// interval sink — the batched occupancy path, Pool.ClassifyBatch →
// Tracker.AddSpan) and attached (a sink consumes every positioned interval
// through Pool.Classify → Tracker.AddInterval). The gap between the two
// sub-benchmarks is the price of interval-level observability, and the
// detached figure is the floor a bare AVF run pays per retired uop.
package smtavf_test

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

// countSink is the cheapest possible interval consumer: classification
// with it attached measures sink dispatch, not sink work.
type countSink struct{ intervals int }

func (c *countSink) Interval(s avf.Struct, tid int, bits, start, end uint64, ace bool) {
	c.intervals++
}

// classifyFixture builds a pool of retired-looking uops with populated
// residency logs, spread over four threads like the gate benchmark's mix.
func classifyFixture(n int) (*pipeline.Pool, []pipeline.UID, *avf.Tracker) {
	pool := pipeline.NewPool(n)
	trk := avf.NewTracker(4, core.StructBits(core.DefaultConfig(4)))
	uids := make([]pipeline.UID, n)
	for i := 0; i < n; i++ {
		in := isa.Instruction{Seq: uint64(i), PC: uint64(0x1000 + 4*i), Class: isa.IntALU}
		if i%3 == 0 {
			in.Class = isa.Load
		}
		u := pool.Alloc()
		pool.Reset(u, &in, int32(i%4), uint64(i), uint64(i), false, uint64(i))
		r := &pool.Res[u]
		r.EnterIQ, r.IQCycles = uint64(i), 3
		r.EnterROB, r.ROBCycles = uint64(i), 9
		if in.Class == isa.Load {
			r.EnterLSQ, r.LSQTagCycles = uint64(i), 9
			r.DataAt, r.LSQDataCycles = uint64(i+5), 4
		}
		r.IssuedAt, r.FUCycles = uint64(i+3), 1
		uids[i] = u
	}
	return pool, uids, trk
}

// BenchmarkClassifyBatch measures one uop classification per op.
func BenchmarkClassifyBatch(b *testing.B) {
	const n = 1024
	bits := pipeline.DefaultBits()
	b.Run("detached", func(b *testing.B) {
		pool, uids, trk := classifyFixture(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.ClassifyBatch(trk, bits, uids[i%n], i%7 == 0)
		}
	})
	b.Run("attached", func(b *testing.B) {
		pool, uids, trk := classifyFixture(n)
		sink := &countSink{}
		trk.Sinks = append(trk.Sinks, sink)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Classify(trk, bits, uids[i%n], i%7 == 0)
		}
	})
}
