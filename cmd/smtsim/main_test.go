package main

import (
	"bufio"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"smtavf"
	"smtavf/internal/campaign"
	"smtavf/internal/experiments"
)

// TestMain re-execs the test binary as smtsim itself when SMTSIM_CHILD is
// set, so the tests drive the real command line: flag parsing, stdout
// and the exit code.
func TestMain(m *testing.M) {
	if os.Getenv("SMTSIM_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runSmtsim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMTSIM_CHILD=1")
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	return string(out), err
}

// TestSpecMatrixMatchesService: a matrix file run by smtsim -spec prints
// one Result line per point, byte-identical to what the campaign service
// (as avfd runs it with default flags) streams for the same matrix,
// apart from the campaign ID; each point printed by -dumpspec reruns
// alone to the same simulation.
func TestSpecMatrixMatchesService(t *testing.T) {
	body := `{"base":{"mix":"2ctx-MIX-A","instructions":30000},"policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":96}]}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runSmtsim(t, "-spec", path, "-log-level", "warn")
	if err != nil {
		t.Fatalf("smtsim -spec: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out), "\n")
	if len(got) != 4 {
		t.Fatalf("smtsim printed %d lines, want 4:\n%s", len(got), out)
	}

	svc, err := campaign.NewService(campaign.ServiceOptions{
		Dir:      t.TempDir(),
		Executor: experiments.NewRunner(experiments.Options{Base: 50_000, Seed: 1}).Campaign,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(campaign.NewMux(svc))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	campaignField := regexp.MustCompile(`,"campaign":"[^"]*"`)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	var want []string
	for sc.Scan() {
		want = append(want, campaignField.ReplaceAllString(sc.Text(), ""))
	}
	if len(want) != len(got) {
		t.Fatalf("service streamed %d lines, smtsim printed %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("point %d differs:\nsmtsim:  %s\nservice: %s", i, got[i], want[i])
		}
	}

	// Single-run flags are refused for a matrix file.
	if _, err := runSmtsim(t, "-spec", path, "-telemetry", filepath.Join(t.TempDir(), "t.jsonl")); err == nil {
		t.Error("-telemetry accepted for a 4-point matrix")
	}

	// A point printed by -dumpspec and run alone on the observer path
	// simulates exactly the run behind its Result line: the matrix left
	// warmup unset, and -dumpspec wrote avfd's default into the point.
	dump, err := runSmtsim(t, "-spec", path, "-dumpspec")
	if err != nil {
		t.Fatalf("smtsim -dumpspec: %v", err)
	}
	var points []json.RawMessage
	if err := json.Unmarshal([]byte(dump), &points); err != nil || len(points) != 4 {
		t.Fatalf("-dumpspec printed %d points (err %v):\n%s", len(points), err, dump)
	}
	pointPath := filepath.Join(t.TempDir(), "point.json")
	if err := os.WriteFile(pointPath, points[1], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runSmtsim(t, "-spec", pointPath, "-json")
	if err != nil {
		t.Fatalf("smtsim -spec point.json -json: %v", err)
	}
	var alone struct {
		Cycles, Total uint64
		AVF           struct{ Total []float64 }
	}
	if err := json.Unmarshal([]byte(out), &alone); err != nil {
		t.Fatal(err)
	}
	var res campaign.Result
	if err := json.Unmarshal([]byte(got[1]), &res); err != nil {
		t.Fatal(err)
	}
	if alone.Cycles != res.Cycles || alone.Total != res.Instructions {
		t.Errorf("point alone: %d cycles, %d instructions; in the matrix: %d, %d",
			alone.Cycles, alone.Total, res.Cycles, res.Instructions)
	}
	for _, s := range smtavf.Structs() {
		if int(s) >= len(alone.AVF.Total) || alone.AVF.Total[s] != res.AVF[s.String()] {
			t.Errorf("point alone: %s AVF differs from the matrix's %v", s, res.AVF[s.String()])
		}
	}

	// A matrix is run point by point whatever its size: one point still
	// prints its Result line.
	onePath := filepath.Join(t.TempDir(), "one.json")
	one := `{"base":` + string(points[1]) + `}`
	if err := os.WriteFile(onePath, []byte(one), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runSmtsim(t, "-spec", onePath)
	if err != nil {
		t.Fatalf("smtsim -spec one-point matrix: %v", err)
	}
	if line := strings.Replace(strings.TrimSpace(out), `"point":0,`, `"point":1,`, 1); line != got[1] {
		t.Errorf("one-point matrix:\n got  %s\n want %s", line, got[1])
	}
}
