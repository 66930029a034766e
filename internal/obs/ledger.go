package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smtavf/internal/jsonlio"
)

// LedgerSchemaVersion is stamped into every RunManifest ("v"); readers
// reject records written by a newer schema.
const LedgerSchemaVersion = 1

// Run statuses.
const (
	StatusOK          = "ok"
	StatusError       = "error"
	StatusInterrupted = "interrupted"
)

// Artifact is one file a run produced, indexed in its manifest so every
// figure traces back to the exact run that made it.
type Artifact struct {
	Kind string `json:"kind"` // telemetry | pipetrace | crossval | propagation | timeline | csv | ...
	Path string `json:"path"`
}

// RunManifest is one ledger record: the full provenance of a single run,
// sweep point, inject campaign, or crossval seed. One manifest marshals
// to one JSONL line of runs.jsonl (docs/campaign-service.md documents the
// schema).
type RunManifest struct {
	V    int    `json:"v"`
	ID   string `json:"id"`
	Kind string `json:"kind"` // run | campaign-point | campaign | crossval-seed | ...

	Program      string   `json:"program,omitempty"`
	ConfigDigest string   `json:"config_digest,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	CampaignSeed uint64   `json:"campaign_seed,omitempty"`
	Policy       string   `json:"policy,omitempty"`
	Workloads    []string `json:"workloads,omitempty"`

	GoVersion     string `json:"go_version,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`

	Start       string  `json:"start,omitempty"` // RFC3339Nano
	End         string  `json:"end,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`

	Cycles       uint64 `json:"cycles,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Shards       int    `json:"shards,omitempty"`
	Strikes      uint64 `json:"strikes,omitempty"`

	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	Artifacts []Artifact        `json:"artifacts,omitempty"`
	Extra     map[string]string `json:"extra,omitempty"`
}

// manifestSeq disambiguates manifests created in the same millisecond of
// the same process (a sweep appends one per point).
var manifestSeq atomic.Uint64

// NewManifest starts a manifest of the given kind for the named program:
// ID, start time, schema version, and toolchain provenance are filled
// in; the caller sets the rest and finishes with Finish.
func NewManifest(kind, program string) *RunManifest {
	now := time.Now()
	m := &RunManifest{
		V:       LedgerSchemaVersion,
		ID:      fmt.Sprintf("%s-%s-%d-%d", program, now.UTC().Format("20060102T150405"), os.Getpid(), manifestSeq.Add(1)),
		Kind:    kind,
		Program: program,
		Start:   now.UTC().Format(time.RFC3339Nano),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.GoVersion = bi.GoVersion
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			m.ModuleVersion = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				m.ModuleVersion = s.Value[:12]
			}
		}
	}
	return m
}

// AddArtifact indexes one output file on the manifest.
func (m *RunManifest) AddArtifact(kind, path string) {
	if m == nil || path == "" {
		return
	}
	m.Artifacts = append(m.Artifacts, Artifact{Kind: kind, Path: path})
}

// Finish stamps the end time, wall duration, and exit status; a non-nil
// err forces StatusError and records the message.
func (m *RunManifest) Finish(status string, err error) {
	if m == nil {
		return
	}
	now := time.Now()
	m.End = now.UTC().Format(time.RFC3339Nano)
	if start, perr := time.Parse(time.RFC3339Nano, m.Start); perr == nil {
		m.WallSeconds = now.Sub(start).Seconds()
	}
	m.Status = status
	if err != nil {
		m.Status = StatusError
		m.Error = err.Error()
	}
}

// checkManifest is the jsonlio version guard on read.
func checkManifest(m *RunManifest) error {
	if m.V > LedgerSchemaVersion {
		return fmt.Errorf("obs: ledger record schema v%d is newer than supported v%d", m.V, LedgerSchemaVersion)
	}
	return nil
}

// Ledger is an append-only JSONL run ledger. Appends reopen the file in
// append mode per record (runs are minutes long; one open per run is
// noise) so concurrent processes interleave at line granularity, and an
// interrupted process loses at most the record being written. Gzip paths
// are rejected — gzip streams cannot be appended to.
type Ledger struct {
	path string
	mu   sync.Mutex
}

// OpenLedger validates path and returns a ledger handle; the file itself
// is created on first Append.
func OpenLedger(path string) (*Ledger, error) {
	if path == "" {
		return nil, fmt.Errorf("obs: empty ledger path")
	}
	if jsonlio.IsGzipPath(path) {
		return nil, fmt.Errorf("obs: ledger %q: gzip streams cannot be appended to; use an uncompressed .jsonl path", path)
	}
	return &Ledger{path: path}, nil
}

// Path returns the ledger file path.
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append writes one manifest as a single JSONL line. Nil-safe: a nil
// ledger drops the record, so call sites need no branching.
func (l *Ledger) Append(m *RunManifest) error {
	if l == nil || m == nil {
		return nil
	}
	if m.V == 0 {
		m.V = LedgerSchemaVersion
	}
	if m.Status == "" {
		m.Status = StatusOK
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return jsonlio.AppendLine(l.path, m)
}

// ReadLedger reads every manifest in a runs.jsonl, oldest first.
func ReadLedger(path string) ([]RunManifest, error) {
	return jsonlio.ReadFile[RunManifest](path, checkManifest)
}

// RunFilter selects ledger records for listing; zero fields match
// everything.
type RunFilter struct {
	Kind    string
	Program string
	Status  string
}

// Match reports whether the manifest passes the filter.
func (f RunFilter) Match(m *RunManifest) bool {
	return (f.Kind == "" || f.Kind == m.Kind) &&
		(f.Program == "" || f.Program == m.Program) &&
		(f.Status == "" || f.Status == m.Status)
}

// FormatRuns renders the filtered ledger as the aligned table
// `avfreport -runs` prints, newest first.
func FormatRuns(ms []RunManifest, f RunFilter) string {
	var rows []RunManifest
	for i := range ms {
		if f.Match(&ms[i]) {
			rows = append(rows, ms[i])
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Start > rows[j].Start })
	var b strings.Builder
	fmt.Fprintf(&b, "%d runs\n", len(rows))
	fmt.Fprintf(&b, "  %-44s %-13s %-11s %-8s %12s %10s %8s %5s\n",
		"id", "kind", "status", "policy", "cycles", "strikes", "wall", "files")
	for i := range rows {
		m := &rows[i]
		fmt.Fprintf(&b, "  %-44s %-13s %-11s %-8s %12d %10d %7.1fs %5d\n",
			m.ID, m.Kind, m.Status, m.Policy, m.Cycles, m.Strikes, m.WallSeconds, len(m.Artifacts))
	}
	return b.String()
}

// FindRun returns the manifest with the given ID, or an ID-prefix match
// when exactly one record matches.
func FindRun(ms []RunManifest, id string) (*RunManifest, error) {
	var prefix []*RunManifest
	for i := range ms {
		if ms[i].ID == id {
			return &ms[i], nil
		}
		if strings.HasPrefix(ms[i].ID, id) {
			prefix = append(prefix, &ms[i])
		}
	}
	switch len(prefix) {
	case 1:
		return prefix[0], nil
	case 0:
		return nil, fmt.Errorf("obs: no run %q in ledger", id)
	default:
		return nil, fmt.Errorf("obs: run id %q is ambiguous (%d matches)", id, len(prefix))
	}
}

// FormatRun renders one manifest as indented JSON (`avfreport -runs-id`).
func FormatRun(m *RunManifest) string {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Sprintf("unprintable manifest: %v", err)
	}
	return string(data) + "\n"
}
