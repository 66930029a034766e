package experiments

import (
	"math"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/campaign"
	"smtavf/internal/cpistack"
)

// TestExplainTables runs a small two-policy comparison and checks the
// shape and invariants of the figure family: stack columns sum to 1,
// occupancy fate shares sum to 1 wherever a structure is occupied, and
// the correlation table carries well-formed coefficients.
func TestExplainTables(t *testing.T) {
	r := NewRunner(Options{Base: 2_000, Seed: 1})
	res, err := r.Campaign(campaign.Spec{
		V:          campaign.SpecVersion,
		Benchmarks: []string{"mcf", "gcc"},
		Explain:    &campaign.ExplainSpec{Policies: []string{"ICOUNT", "FLUSH"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := TablesFromCampaign(res.Tables)
	if res.Title == "" {
		t.Fatal("empty title")
	}
	// 1 stack table + one occupancy table per policy + 1 correlation table.
	if len(ts) != 4 {
		t.Fatalf("%d tables, want 4", len(ts))
	}

	stack := ts[0]
	if len(stack.Rows) != cpistack.NumComponents {
		t.Fatalf("stack has %d rows, want %d", len(stack.Rows), cpistack.NumComponents)
	}
	if len(stack.Cols) != 2 {
		t.Fatalf("stack has %d columns, want 2", len(stack.Cols))
	}
	for j := range stack.Cols {
		var sum float64
		for i := range stack.Rows {
			v := stack.Get(i, j)
			if v < 0 || v > 1 {
				t.Errorf("stack %s/%s = %v out of [0,1]", stack.Rows[i], stack.Cols[j], v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("stack column %s sums to %v, want 1", stack.Cols[j], sum)
		}
	}

	for _, occ := range ts[1:3] {
		if len(occ.Rows) != len(cpistack.OccupancyStructs()) {
			t.Fatalf("%s has %d rows, want %d", occ.Title, len(occ.Rows), len(cpistack.OccupancyStructs()))
		}
		if len(occ.Cols) != 1+int(avf.NumFates) {
			t.Fatalf("%s has %d columns, want %d", occ.Title, len(occ.Cols), 1+int(avf.NumFates))
		}
		for i := range occ.Rows {
			occupied := occ.Get(i, 0)
			if occupied < 0 || occupied > 1 {
				t.Errorf("%s %s occupied = %v out of [0,1]", occ.Title, occ.Rows[i], occupied)
			}
			if occupied == 0 {
				continue
			}
			var fates float64
			for j := 1; j < len(occ.Cols); j++ {
				fates += occ.Get(i, j)
			}
			if math.Abs(fates-1) > 1e-9 {
				t.Errorf("%s %s fate shares sum to %v, want 1", occ.Title, occ.Rows[i], fates)
			}
		}
	}

	corr := ts[3]
	if got, want := len(corr.Cols), 2*2+1; got != want {
		t.Fatalf("correlation table has %d columns, want %d", got, want)
	}
	if corr.Cols[len(corr.Cols)-1] != "pearson" {
		t.Fatalf("last correlation column is %q, want pearson", corr.Cols[len(corr.Cols)-1])
	}
	iq := corr.Row("IQ")
	if iq < 0 {
		t.Fatal("correlation table has no IQ row")
	}
	for i := range corr.Rows {
		p := corr.Get(i, len(corr.Cols)-1)
		if p < -1-1e-9 || p > 1+1e-9 || math.IsNaN(p) {
			t.Errorf("%s pearson = %v out of [-1,1]", corr.Rows[i], p)
		}
	}
	// FLUSH drains the queues after a miss: IQ occupancy must drop
	// relative to ICOUNT, which is the worked example in the README.
	if ico, fl := corr.Get(iq, 0), corr.Get(iq, 2); fl >= ico {
		t.Errorf("IQ occupancy under FLUSH (%v) not below ICOUNT (%v)", fl, ico)
	}
}

func TestPearson(t *testing.T) {
	for _, tc := range []struct {
		name   string
		xs, ys []float64
		want   float64
	}{
		{"perfect positive", []float64{1, 2, 3}, []float64{2, 4, 6}, 1},
		{"perfect negative", []float64{1, 2, 3}, []float64{6, 4, 2}, -1},
		{"constant series", []float64{1, 1, 1}, []float64{1, 2, 3}, 0},
		{"too short", []float64{1}, []float64{2}, 0},
		{"mismatched", []float64{1, 2}, []float64{1}, 0},
	} {
		if got := pearson(tc.xs, tc.ys); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: pearson = %v, want %v", tc.name, got, tc.want)
		}
	}
}
