package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smtavf/internal/core"
)

func TestMatrixPoints(t *testing.T) {
	m := Matrix{
		Base:     Spec{Benchmarks: []string{"gcc", "mcf"}, Instructions: 1000},
		Policies: []string{"ICOUNT", "STALL"},
		Seeds:    []uint64{1, 2, 3},
	}
	points, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	// Deterministic: a second expansion is identical.
	again, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(points, again) {
		t.Fatal("expansion is not deterministic")
	}
	// Policies outermost-but-one, seeds innermost.
	if points[0].Policy != "ICOUNT" || points[0].Seed != 1 {
		t.Errorf("point 0 = %s/%d", points[0].Policy, points[0].Seed)
	}
	if points[2].Policy != "ICOUNT" || points[2].Seed != 3 {
		t.Errorf("point 2 = %s/%d", points[2].Policy, points[2].Seed)
	}
	if points[3].Policy != "STALL" || points[3].Seed != 1 {
		t.Errorf("point 3 = %s/%d", points[3].Policy, points[3].Seed)
	}
	// Every point inherits the base and is labelled by the varying axes.
	for i, p := range points {
		if p.Instructions != 1000 {
			t.Errorf("point %d lost the base budget", i)
		}
		want := p.PolicyName() + "/seed" + string(rune('0'+p.Seed))
		if p.Name != want {
			t.Errorf("point %d name = %q, want %q", i, p.Name, want)
		}
	}

	// The machines axis sits between policies and seeds; each patch is
	// decoded over the defaults of its point's workload, with Threads
	// forced from the workload, and labels the point by its compact text.
	m = Matrix{
		Base:     Spec{Benchmarks: []string{"gcc", "mcf"}},
		Mixes:    []string{"2ctx-MIX-A", "4ctx-MIX-A"},
		Policies: []string{"ICOUNT", "FLUSH"},
		Machines: []json.RawMessage{json.RawMessage(`{"IQSize": 48}`), json.RawMessage(`{"ROBSize":64,"LSQSize":16}`)},
		Seeds:    []uint64{1, 2},
	}
	if points, err = m.Points(); err != nil {
		t.Fatal(err)
	}
	if len(points) != 16 {
		t.Fatalf("got %d points, want 16", len(points))
	}
	for i, want := range map[int]string{
		0:  `2ctx-MIX-A/ICOUNT/{"IQSize":48}/seed1`,
		3:  `2ctx-MIX-A/ICOUNT/{"ROBSize":64,"LSQSize":16}/seed2`,
		5:  `2ctx-MIX-A/FLUSH/{"IQSize":48}/seed2`,
		15: `4ctx-MIX-A/FLUSH/{"ROBSize":64,"LSQSize":16}/seed2`,
	} {
		if points[i].Name != want {
			t.Errorf("point %d name = %q, want %q", i, points[i].Name, want)
		}
	}
	for i, want := range map[int]struct{ iq, rob, threads int }{
		0:  {48, 96, 2},
		3:  {96, 64, 2},
		8:  {48, 96, 4},
		15: {96, 64, 4},
	} {
		mc := points[i].Machine
		if mc == nil || mc.IQSize != want.iq || mc.ROBSize != want.rob || mc.Threads != want.threads {
			t.Errorf("point %d machine = %+v, want IQ %d ROB %d threads %d", i, mc, want.iq, want.rob, want.threads)
		}
	}

	// A patch overlays Base.Machine when the base sets one, leaving the
	// base itself untouched, and Threads still follows the workload; a
	// single patch does not label the point.
	base := core.DefaultConfig(4)
	base.LSQSize = 32
	m = Matrix{Base: Spec{Mix: "2ctx-MIX-A", Machine: &base}, Machines: []json.RawMessage{json.RawMessage(`{"IQSize":48}`)}}
	if points, err = m.Points(); err != nil {
		t.Fatal(err)
	}
	if mc := points[0].Machine; mc.LSQSize != 32 || mc.IQSize != 48 || mc.Threads != 2 || base.IQSize != 96 {
		t.Errorf("overlay on the base machine: LSQ %d IQ %d threads %d, base IQ %d", mc.LSQSize, mc.IQSize, mc.Threads, base.IQSize)
	}
	if points[0].Name != "2ctx-MIX-A" {
		t.Errorf("single-patch point name = %q", points[0].Name)
	}

	// A bad patch is rejected with the index of the first point using it:
	// an unknown field, a bad policy name, a non-object, or a field the
	// spec decides (which would label the point without changing the run).
	for _, bad := range []string{
		`{"IQSzie":48}`, `{"Policy":"NOPE"}`, `48`,
		`{"Policy":"FLUSH"}`, `{"seed":5}`, `{"Warmup":1}`, `{"PhaseInterval":1}`, `{"Threads":7}`,
	} {
		m = Matrix{
			Base:     Spec{Mix: "2ctx-MIX-A"},
			Machines: []json.RawMessage{json.RawMessage(`{"IQSize":48}`), json.RawMessage(bad)},
			Seeds:    []uint64{1, 2},
		}
		if _, err := m.Points(); err == nil || !strings.Contains(err.Error(), "point 2:") {
			t.Errorf("patch %s: err = %v, want a point 2 error", bad, err)
		}
	}
}

func TestMatrixSinglePoint(t *testing.T) {
	points, err := Matrix{Base: Spec{Mix: "2ctx-CPU-A"}}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	if points[0].Name != "2ctx-CPU-A" {
		t.Errorf("singleton name = %q", points[0].Name)
	}
}

func TestMatrixMixAxisReplacesSource(t *testing.T) {
	m := Matrix{
		Base:  Spec{Benchmarks: []string{"gcc"}},
		Mixes: []string{"2ctx-CPU-A", "2ctx-MEM-A"},
	}
	points, err := m.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if len(p.Benchmarks) != 0 {
			t.Errorf("mix axis left base benchmarks on %q", p.Name)
		}
	}
	if points[0].Mix != "2ctx-CPU-A" || points[1].Mix != "2ctx-MEM-A" {
		t.Errorf("mix order: %q, %q", points[0].Mix, points[1].Mix)
	}
}

func TestMatrixRejectsInvalidPoint(t *testing.T) {
	if _, err := (Matrix{Base: Spec{}}).Points(); err == nil {
		t.Fatal("sourceless base expanded without error")
	}
	if _, err := (Matrix{V: 2, Base: Spec{Mix: "2ctx-CPU-A"}}).Points(); err == nil {
		t.Fatal("unsupported version expanded without error")
	}
}

func TestMatrixPointCap(t *testing.T) {
	seeds := make([]uint64, MaxPoints+1)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	if _, err := (Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: seeds}).Points(); err == nil {
		t.Fatal("oversized matrix expanded without error")
	}
	// The machines axis counts: 64 seeds x 64 patches is the cap, one
	// more patch is over it.
	machines := make([]json.RawMessage, 65)
	for i := range machines {
		machines[i] = json.RawMessage(fmt.Sprintf(`{"IQSize":%d}`, 16+i))
	}
	m := Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: seeds[:64], Machines: machines[:64]}
	if points, err := m.Points(); err != nil || len(points) != MaxPoints {
		t.Fatalf("64x64 matrix: %d points, err %v", len(points), err)
	}
	m.Machines = machines
	if _, err := m.Points(); err == nil {
		t.Fatal("oversized machines axis expanded without error")
	}
}

// FuzzDecodeMatrix feeds untrusted submission bytes — the POST
// /v1/campaigns body and smtsim -spec matrix files — through the strict
// decoder and the expansion: neither may panic, every accepted point
// must validate, and every point must survive the JSON round trip the
// service store puts it through.
func FuzzDecodeMatrix(f *testing.F) {
	for _, seed := range []string{
		`{"base":{"mix":"2ctx-MIX-A","instructions":30000},"policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":96}]}`,
		`{"v":1,"name":"n","base":{"benchmarks":["gcc","mcf"],"machine":{"ROBSize":64}},"mixes":["4ctx-MIX-A"],"seeds":[1,2],"machines":[{"LSQSize":16}]}`,
		`{"base":{"mix":"2ctx-CPU-A","crossval":{"seeds":[1,2]},"protection":{"IQ":"ecc"}}}`,
		`{"base":{"trace_files":["a.trc"]},"machines":[null]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := decodeStrict(bytes.NewReader(data), &m); err != nil {
			return
		}
		points, err := m.Points()
		if err != nil {
			return
		}
		for i, p := range points {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted point %d fails Validate: %v", i, err)
			}
			enc, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("point %d does not encode: %v", i, err)
			}
			var back Spec
			if err := decodeStrict(bytes.NewReader(enc), &back); err != nil {
				t.Fatalf("point %d does not decode back: %v\n%s", i, err, enc)
			}
		}
	})
}
