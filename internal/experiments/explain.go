package experiments

import (
	"math"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/cpistack"
)

// explainRun is one policy's worth of raw material for the tables.
type explainRun struct {
	policy string
	obs    *cpistack.Observer
	res    *core.Results
}

// explainStackTable builds the stacked-CPI chart: the share of all
// thread-cycles each component absorbed, one column per policy.
func explainStackTable(title string, runs []explainRun) *Table {
	comps := cpistack.Components()
	rows := make([]string, len(comps))
	for i, c := range comps {
		rows[i] = c.String()
	}
	cols := make([]string, len(runs))
	for j, run := range runs {
		cols[j] = run.policy
	}
	t := NewTable("CPI stack by fetch policy — "+title, rows, cols)
	t.Percent = true
	t.Note = "share of all thread-cycles; each column sums to 100 because every cycle is attributed to exactly one component"
	for j, run := range runs {
		var total uint64
		for tid := 0; tid < run.obs.Threads(); tid++ {
			total += run.obs.CycleCount(tid)
		}
		for i, c := range comps {
			var cycles uint64
			for tid := 0; tid < run.obs.Threads(); tid++ {
				cycles += run.obs.ComponentCycles(tid, c)
			}
			t.Set(i, j, ratioOf(cycles, total))
		}
	}
	return t
}

// explainOccupancyTable decomposes one policy's structure occupancy:
// the occupied share of capacity, then how the occupied bit-cycles
// split across ACE fates.
func explainOccupancyTable(title string, run explainRun) *Table {
	structs := cpistack.OccupancyStructs()
	rows := make([]string, len(structs))
	for i, s := range structs {
		rows[i] = s.String()
	}
	cols := []string{"occupied"}
	for _, f := range avf.Fates() {
		cols = append(cols, f.String())
	}
	t := NewTable("occupancy by fate under "+run.policy+" — "+title, rows, cols)
	t.Percent = true
	t.Note = "occupied = resident share of capacity; fate columns split the occupied bit-cycles, so they sum to 100"
	start, end := run.obs.Span()
	span := end - start
	for i, s := range structs {
		resident := run.obs.ResidentBitCycles(s)
		t.Set(i, 0, ratioOf(resident, run.obs.Capacity(s)*span))
		for j, f := range avf.Fates() {
			t.Set(i, j+1, ratioOf(run.obs.FateBitCycles(s, f), resident))
		}
	}
	return t
}

// explainCorrelationTable joins the two measurements: per structure,
// each policy's occupancy and AVF side by side, plus the Pearson
// correlation of the (occupancy, AVF) pairs across policies. A strong
// positive coefficient is the paper's causal story made quantitative —
// the fetch policy moves AVF by moving how full the structure is.
func explainCorrelationTable(title string, runs []explainRun) *Table {
	structs := cpistack.OccupancyStructs()
	rows := make([]string, len(structs))
	for i, s := range structs {
		rows[i] = s.String()
	}
	cols := make([]string, 0, 2*len(runs)+1)
	for _, run := range runs {
		cols = append(cols, "occ:"+run.policy, "avf:"+run.policy)
	}
	cols = append(cols, "pearson")
	t := NewTable("occupancy vs AVF across policies — "+title, rows, cols)
	t.Note = "occ and avf are fractions in [0,1]; pearson correlates the per-policy (occupancy, AVF) pairs"
	for i, s := range structs {
		occ := make([]float64, len(runs))
		av := make([]float64, len(runs))
		for j, run := range runs {
			start, end := run.obs.Span()
			occ[j] = ratioOf(run.obs.ResidentBitCycles(s), run.obs.Capacity(s)*(end-start))
			av[j] = run.res.StructAVF(s)
			t.Set(i, 2*j, occ[j])
			t.Set(i, 2*j+1, av[j])
		}
		t.Set(i, len(cols)-1, pearson(occ, av))
	}
	return t
}

// ratioOf divides counters as a float, mapping 0/0 to 0 so empty
// structures render as zero rather than NaN.
func ratioOf(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// pearson computes the sample correlation coefficient of two equal-length
// series, returning 0 when either series is constant (the coefficient is
// undefined there, and "no observable relationship" is the honest render).
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
