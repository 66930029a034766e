package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"smtavf"
	"smtavf/internal/campaign"
	"smtavf/internal/digest"
	"smtavf/internal/experiments"
)

// campaignWorkers is the service's executor pool, avfd's default. Every
// point, sharded or not, simulates on one goroutine, which leaves the
// second core of the reference host to the collector and the HTTP path.
const campaignWorkers = 1

// serviceStarts is how many fresh services a run starts to time set-up.
const serviceStarts = 41

// campaignWorkload drives an in-process campaign.Service, backed by
// experiments.Runner.Campaign, from one closed-loop client over loopback
// HTTP: it submits a matrix, reads its stream to the end, and submits the
// next.
type campaignWorkload struct{}

// matrices is one round of the fixed submission sequence: sharded plain
// runs, then short monolithic runs with a strike campaign, across policies
// and seeds drawn from the benchmark seed.
func (campaignWorkload) matrices(seed uint64, scale float64) []campaign.Matrix {
	return []campaign.Matrix{{
		Name: "sharded",
		Base: campaign.Spec{Mix: "4ctx-MIX-B", Instructions: scaled(600_000, scale),
			NoWarmup: true, Shards: 4, ShardWorkers: 1},
		Policies: []string{"ICOUNT", "STALL"},
		Seeds:    []uint64{simSeed(seed, 1), simSeed(seed, 2)},
	}, {
		Name: "inject",
		Base: campaign.Spec{Mix: "2ctx-MIX-A", Instructions: scaled(200_000, scale),
			Warmup: scaled(20_000, scale), Inject: &campaign.InjectSpec{Every: injectEvery}},
		Policies: []string{"ICOUNT", "FLUSH"},
		Seeds:    []uint64{simSeed(seed, 3)},
	}}
}

// server is one running service and its HTTP front end.
type server struct {
	dir  string
	svc  *campaign.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startServer starts a service on a fresh store and waits until /readyz
// answers 200: the set-up an avfd user waits for.
func startServer(dir string, exec campaign.Executor, client *http.Client) (*server, error) {
	svc, err := campaign.NewService(campaign.ServiceOptions{
		Dir:      dir,
		Workers:  campaignWorkers,
		Executor: exec,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{dir: dir, svc: svc, srv: &http.Server{Handler: campaign.NewMux(svc)},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := client.Get(s.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the HTTP server and the workers and removes the store. A
// failure to close or remove leaves only scratch state under the work
// directory, so it is not reported.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
	s.svc.Close()
	_ = os.RemoveAll(s.dir)
}

// execLog records each point's executor interval, keyed by point name.
type execLog struct {
	mu    sync.Mutex
	spans map[string][2]time.Time
}

func (l *execLog) get(name string) ([2]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	iv, ok := l.spans[name]
	return iv, ok
}

func (w campaignWorkload) measure(o options, tr *tracer) (*measurement, error) {
	runner := experiments.NewRunner(experiments.Options{})
	execs := &execLog{spans: map[string][2]time.Time{}}
	exec := func(spec campaign.Spec) (*campaign.Result, error) {
		start := time.Now()
		res, err := runner.Campaign(spec)
		end := time.Now()
		execs.mu.Lock()
		execs.spans[spec.Name] = [2]time.Time{start, end}
		execs.mu.Unlock()
		return res, err
	}
	transport := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	m := &measurement{digest: digest.New()}
	var srv *server
	for i := 0; i < serviceStarts; i++ {
		dir, err := os.MkdirTemp(o.workDir, "store-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startServer(dir, exec, client)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0))
		if i < serviceStarts-1 {
			s.close()
		} else {
			srv = s
		}
	}
	defer srv.close()

	mats := w.matrices(o.seed, o.scale)
	want := map[[2]int]uint64{} // round 0's digest of each (matrix, point)
	begin := time.Now()
	cpuBegin := processCPU()
	var wall time.Duration
	for round := 0; round == 0 || time.Since(begin).Seconds() < o.seconds; round++ {
		for mi, mat := range mats {
			mat.Base.Name = fmt.Sprintf("r%d-%s", round, mat.Name)
			results, submitted, err := submitAndStream(client, srv.url, mat, tr, execs, m)
			if err != nil {
				return nil, err
			}
			for i, res := range results {
				m.attempted++
				err := checkPoint(res, submitted[i])
				if err == nil {
					d := pointDigest(res)
					key := [2]int{mi, i}
					if first, seen := want[key]; !seen {
						want[key] = d
						m.digest = digest.Mix(m.digest, d)
					} else if d != first {
						err = fmt.Errorf("digest %#016x, round 0 gave %#016x", d, first)
					}
				}
				if err != nil {
					m.failed++
					fmt.Fprintf(os.Stderr, "perfbench: campaign %s point %d: %v\n", mat.Base.Name, i, err)
					continue
				}
				m.points++
				m.insns += res.Instructions + submitted[i].Warmup
			}
		}
		wall = time.Since(begin)
	}
	m.wall = wall
	m.cpu = processCPU() - cpuBegin
	if tr != nil {
		tr.workers = campaignWorkers
		tr.wall = wall
		execs.mu.Lock()
		for _, iv := range execs.spans {
			tr.execTime += iv[1].Sub(iv[0])
		}
		execs.mu.Unlock()
	}
	return m, nil
}

// submitAndStream POSTs one matrix and reads its result stream to the
// end. It returns the results indexed by point (nil where a point never
// streamed) and the submitted point specs.
func submitAndStream(client *http.Client, url string, mat campaign.Matrix, tr *tracer, execs *execLog, m *measurement) ([]*campaign.Result, []campaign.Spec, error) {
	points, err := mat.Points()
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(mat)
	if err != nil {
		return nil, nil, err
	}
	op := tr.id()
	posted := time.Now()
	resp, err := client.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	var ack struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	accepted := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || ack.Points != len(points) {
		return nil, nil, fmt.Errorf("submit: status %d, %d points accepted of %d", resp.StatusCode, ack.Points, len(points))
	}
	tr.span("submit", op, posted, accepted)

	resp, err = client.Get(url + "/v1/campaigns/" + ack.ID + "/stream")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	results := make([]*campaign.Result, len(points))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	first := true
	for sc.Scan() {
		read := time.Now()
		if first {
			m.firstRes = append(m.firstRes, read.Sub(posted))
			first = false
		}
		var res campaign.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, nil, fmt.Errorf("stream: %w", err)
		}
		if res.Point < 0 || res.Point >= len(points) {
			return nil, nil, fmt.Errorf("stream: point %d out of range", res.Point)
		}
		if results[res.Point] != nil {
			return nil, nil, fmt.Errorf("stream: point %d streamed twice", res.Point)
		}
		results[res.Point] = &res
		if iv, ok := execs.get(res.Name); ok {
			tr.span("queue", op, posted, iv[0])
			tr.span("exec", op, iv[0], iv[1])
			tr.span("deliver", op, iv[1], read)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("stream: %w", err)
	}
	tr.record(op, 0, "campaign", posted, time.Now())
	return results, points, nil
}

// checkPoint is the output check of one campaign point: it streamed, ran
// cleanly, committed what was asked, and reports AVFs that are fractions.
func checkPoint(res *campaign.Result, spec campaign.Spec) error {
	if res == nil {
		return errors.New("never streamed")
	}
	if res.Status != "ok" {
		return fmt.Errorf("status %q: %s", res.Status, res.Error)
	}
	// A sharded run commits each thread's exact quota; a monolithic one may
	// overshoot by less than the commit width.
	width := uint64(smtavf.DefaultConfig(spec.Threads()).CommitWidth)
	if spec.Shards > 1 {
		width = 1
	}
	if res.Instructions < spec.Instructions || res.Instructions >= spec.Instructions+width {
		return fmt.Errorf("committed %d instructions, requested %d", res.Instructions, spec.Instructions)
	}
	var errs []error
	for _, s := range smtavf.Structs() {
		v, ok := res.AVF[s.String()]
		if !ok || !(v >= 0 && v <= 1) {
			errs = append(errs, fmt.Errorf("%v AVF %v (reported %v) outside [0, 1]", s, v, ok))
		}
	}
	return errors.Join(errs...)
}

// pointDigest folds a streamed result's reported figures into one hash.
func pointDigest(res *campaign.Result) uint64 {
	h := digest.New()
	h = digest.Mix(h, res.Cycles)
	h = digest.Mix(h, res.Instructions)
	h = digest.Mix(h, res.Strikes)
	for _, s := range smtavf.Structs() {
		h = digest.Mix(h, math.Float64bits(res.AVF[s.String()]))
	}
	return h
}
