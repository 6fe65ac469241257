package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"chiron/internal/mechanism"
	"chiron/internal/scenario"
	"chiron/internal/session"
)

// Serve workload shape. One client process holds two connections (the
// reference host's core count): a closed-loop session client and an
// open-loop control-plane generator.
const (
	serveSpawns      = 9 // chirond start-ups timed for setup_s; the last one serves the load
	serveSeedCycle   = 4 // session seeds cycle through seed … seed+3
	serveTrain       = 8 // training episodes per hosted session
	serveEval        = 2 // evaluation episodes per hosted session
	serveNodes       = 5 // "paper"-profile nodes per session fleet
	serveBudget      = 300
	servePoll        = 10 * time.Millisecond // episode-cursor poll interval
	ctlLimitMS       = 50                    // control-plane tail-latency limit for ctl_max_rps
	serveStopTimeout = 15 * time.Second
)

// ctlRates are the control plane's open-loop request rates, each held for
// a third of the measurement time.
var ctlRates = []float64{100, 400, 1600}

// sessionSpec is the scenario a hosted session runs: Chiron on five
// paper-profile nodes at η=300.
func sessionSpec(seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:          fmt.Sprintf("bench-serve-%d", seed),
		Dataset:       "mnist",
		Seed:          seed,
		Classes:       []scenario.DeviceClass{{Profile: "paper", Count: serveNodes}},
		Budgets:       []float64{serveBudget},
		Mechanisms:    []string{"chiron"},
		TrainEpisodes: serveTrain,
		EvalEpisodes:  serveEval,
	}
}

// server is one chirond process.
type server struct {
	cmd  *exec.Cmd
	base string
	once sync.Once
	err  error
	// Filled in by stop from the exited process.
	maxRSSMB, cpuSeconds float64
	stderr               bytes.Buffer
}

// startServer spawns chirond on a free localhost port with its default
// flags otherwise, and returns once /healthz answers 200, with the time
// that took.
func startServer(path string) (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr}
	t0 := time.Now()
	s.cmd = exec.Command(path, "-addr", addr)
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start chirond: %w", err)
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("chirond at %s not healthy after 10s: %v; stderr: %s", addr, err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (chirond drains and stops its sessions), waits for
// the process to exit, killing it after serveStopTimeout, and records its
// peak RSS and CPU time. Safe to call more than once.
func (s *server) stop() error {
	s.once.Do(func() {
		done := make(chan error, 1)
		go func() { done <- s.cmd.Wait() }()
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			s.cmd.Process.Kill()
		}
		select {
		case s.err = <-done:
		case <-time.After(serveStopTimeout):
			s.cmd.Process.Kill()
			s.err = fmt.Errorf("chirond did not stop within %v: %w", serveStopTimeout, <-done)
		}
		if ps := s.cmd.ProcessState; ps != nil {
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				s.maxRSSMB = float64(ru.Maxrss) / 1024
			}
			s.cpuSeconds = (ps.UserTime() + ps.SystemTime()).Seconds()
		}
	})
	return s.err
}

// client is one HTTP connection's worth of load with its own accounting.
type client struct {
	http      *http.Client
	base      string
	attempted int
	failed    int
	latencyMS map[string][]float64 // by endpoint, successful requests only
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		base:      base,
		latencyMS: map[string][]float64{},
	}
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Latency runs from due, the request's scheduled time. Any
// transport error or non-2xx answer (429 included) is a failed operation.
func (c *client) do(endpoint, method, path string, body, out any, due time.Time) error {
	c.attempted++
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			c.failed++
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.failed++
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.failed++
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		c.failed++
		return err
	}
	c.latencyMS[endpoint] = append(c.latencyMS[endpoint], float64(time.Since(due).Microseconds())/1e3)
	return nil
}

// hostedSession is one session the closed loop ran to completion.
type hostedSession struct {
	seed                       int64
	digest                     string
	train                      []mechanism.EpisodeResult
	turnaround, queueWait, run float64
}

type sessionView struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// runSessions is the closed loop: create → start → poll the episode
// cursor → result, one session at a time until end. A session still
// running at end is stopped and not counted.
func runSessions(c *client, seed int64, end time.Time) ([]hostedSession, error) {
	var done []hostedSession
	for i := 0; time.Now().Before(end); i++ {
		s := hostedSession{seed: seed + int64(i%serveSeedCycle)}
		t0 := time.Now()
		var view sessionView
		if err := c.do("create", "POST", "/sessions", map[string]any{"spec": sessionSpec(s.seed)}, &view, time.Now()); err != nil {
			return done, err
		}
		id := view.ID
		if err := c.do("start", "POST", "/sessions/"+id+"/start", nil, &view, time.Now()); err != nil {
			return done, err
		}
		started := time.Now()
		var running time.Time
		next := 0
		state := view.State
		for state != "done" {
			if time.Now().After(end) {
				return done, stopSession(c, id)
			}
			time.Sleep(servePoll)
			var page struct {
				State  string                 `json:"state"`
				Events []session.EpisodeEvent `json:"events"`
				Next   int                    `json:"next"`
			}
			if err := c.do("poll", "GET", fmt.Sprintf("/sessions/%s/episodes?since=%d", id, next), nil, &page, time.Now()); err != nil {
				return done, err
			}
			state, next = page.State, page.Next
			if running.IsZero() && state != "queued" {
				running = time.Now()
			}
			for _, ev := range page.Events {
				if !ev.Eval {
					s.train = append(s.train, ev.Result)
				}
			}
			if state == "failed" || state == "stopped" {
				c.failed++
				return done, fmt.Errorf("session %s ended %s", id, state)
			}
		}
		var result struct {
			Digest string `json:"digest"`
		}
		if err := c.do("result", "GET", "/sessions/"+id+"/result", nil, &result, time.Now()); err != nil {
			return done, err
		}
		finished := time.Now()
		s.digest = result.Digest
		s.turnaround = finished.Sub(t0).Seconds()
		s.queueWait = running.Sub(started).Seconds()
		s.run = finished.Sub(running).Seconds()
		done = append(done, s)
	}
	return done, nil
}

// stopSession stops a hosted session and waits for it to settle.
func stopSession(c *client, id string) error {
	var view sessionView
	if err := c.do("stop", "POST", "/sessions/"+id+"/stop", nil, &view, time.Now()); err != nil {
		return err
	}
	for view.State != "stopped" && view.State != "done" && view.State != "failed" {
		time.Sleep(servePoll)
		if err := c.do("poll", "GET", "/sessions/"+id, nil, &view, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// ctlStep is one rate of the control-plane generator.
type ctlStep struct {
	rate      float64
	latencyMS []float64 // from each request's scheduled time; failures count as failedLatencyMS
	lateMS    []float64 // how late each request was sent
}

// runControlPlane is the open loop: heartbeats from a registered node
// alternate with status reads of a held registry session, at each of
// ctlRates for stepDur. Each request is timed from when it was due.
func runControlPlane(c *client, seed int64, stepDur time.Duration) ([]ctlStep, error) {
	var view sessionView
	if err := c.do("create", "POST", "/sessions", map[string]any{"spec": sessionSpec(seed), "registry": true}, &view, time.Now()); err != nil {
		return nil, err
	}
	id := view.ID
	if err := c.do("register", "POST", "/sessions/"+id+"/nodes", map[string]any{"node": 0}, nil, time.Now()); err != nil {
		return nil, err
	}
	var steps []ctlStep
	for _, rate := range ctlRates {
		st := ctlStep{rate: rate}
		n := int(rate * stepDur.Seconds())
		t0 := time.Now()
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			st.lateMS = append(st.lateMS, float64(time.Since(due).Microseconds())/1e3)
			var err error
			if i%2 == 0 {
				err = c.do("heartbeat", "POST", "/sessions/"+id+"/nodes/0/heartbeat", nil, nil, due)
			} else {
				err = c.do("status", "GET", "/sessions/"+id, nil, nil, due)
			}
			lat := float64(time.Since(due).Microseconds()) / 1e3
			if err != nil {
				lat = failedLatencyMS
			}
			st.latencyMS = append(st.latencyMS, lat)
		}
		steps = append(steps, st)
	}
	return steps, stopSession(c, id)
}

// failedLatencyMS is the latency a failed control-plane request counts
// as: beyond any limit, yet finite so every percentile stays encodable.
const failedLatencyMS = 1e300

// latenessGrows reports whether the generator fell further behind during
// the step: the median lateness of its last quarter exceeds that of its
// first quarter by more than a millisecond.
func latenessGrows(lateMS []float64) bool {
	q := len(lateMS) / 4
	if q == 0 {
		return false
	}
	return median(lateMS[len(lateMS)-q:]) > median(lateMS[:q])+1
}

// twinRun is a hosted session's spec played in process.
type twinRun struct {
	digest    string
	train     []mechanism.EpisodeResult
	attempted int
	episodes  int
}

// playTwin plays spec's single cell in process through the scenario
// package's stepwise cell primitives (what a hosted session runs): the
// untraced path through the mechanism's own driver, or, with rec, the
// traced driver pass under a job span.
func playTwin(spec *scenario.Spec, rec *recorder) (twinRun, *tracedPass, error) {
	cells, err := spec.Cells()
	if err != nil {
		return twinRun{}, nil, err
	}
	if len(cells) != 1 {
		return twinRun{}, nil, fmt.Errorf("session spec has %d cells, want 1", len(cells))
	}
	cell := cells[0]
	var job int
	if rec != nil {
		job = rec.open("job", 0, time.Now())
	}
	t0 := time.Now()
	run, err := scenario.OpenCell(spec, cell)
	if err != nil {
		return twinRun{}, nil, err
	}
	m := run.Mechanism()
	var out twinRun
	var agg mechanism.EpisodeResult
	var pass *tracedPass
	if rec != nil {
		rec.add("setup", job, t0, time.Now())
		actor, ok := m.(mechanism.Actor)
		if !ok {
			return twinRun{}, nil, fmt.Errorf("%s does not expose its actor", m.Name())
		}
		pass = newTracedPass(rec, m.Name(), m.Env(), actor, learners(m))
		if agg, err = pass.play(job, run.TrainRemaining(), spec.EvalEpisodes); err != nil {
			return twinRun{}, nil, err
		}
		rec.close(job, time.Now())
		out.train = pass.results[:len(pass.results)-spec.EvalEpisodes]
		out.attempted = sumInts(pass.attempted)
		out.episodes = len(pass.results)
	} else {
		for run.TrainRemaining() > 0 {
			res, err := run.TrainEpisode()
			if err != nil {
				return twinRun{}, nil, err
			}
			out.train = append(out.train, res)
			out.attempted += attemptedRounds(m.Env())
		}
		// CellRun.Evaluate is mechanism.Evaluate; it is unrolled here to
		// count each episode's rounds.
		var a mechanism.Aggregator
		for i := 0; i < spec.EvalEpisodes; i++ {
			res, err := m.RunEpisode(false)
			if err != nil {
				return twinRun{}, nil, err
			}
			a.Add(res)
			out.attempted += attemptedRounds(m.Env())
		}
		agg = a.Result()
		out.episodes = len(out.train) + spec.EvalEpisodes
	}
	result := &scenario.Result{Name: spec.Name, Nodes: spec.NumNodes(),
		Cells: []scenario.CellResult{{Mechanism: cell.Mechanism, Budget: cell.Budget, Result: agg}}}
	out.digest = result.Digest()
	return out, pass, nil
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func sameEpisodes(a, b []mechanism.EpisodeResult) bool {
	return len(a) == len(b) && digestEpisodes(a) == digestEpisodes(b)
}

// runServe measures chirond: start-up time, then the closed session loop
// and the open control-plane loop side by side for the measurement time,
// then correctness against in-process twins.
func runServe(opt options, spans *spanSink) (*Result, error) {
	const name = "serve"
	res := newResult(name, opt)
	var setups []float64
	var srv *server
	for i := 0; i < serveSpawns; i++ {
		s, setup, err := startServer(opt.chirond)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		if i < serveSpawns-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stop chirond: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()
	res.Raw["setup_seconds"] = setups

	sessions, ctl := newClient(srv.base), newClient(srv.base)
	stepDur := time.Duration(opt.seconds / float64(len(ctlRates)) * float64(time.Second))
	cpu0 := cpuSeconds()
	end := time.Now().Add(stepDur * time.Duration(len(ctlRates)))
	var wg sync.WaitGroup
	var hosted []hostedSession
	var steps []ctlStep
	var sessErr, ctlErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		hosted, sessErr = runSessions(sessions, opt.seed, end)
	}()
	go func() {
		defer wg.Done()
		steps, ctlErr = runControlPlane(ctl, opt.seed, stepDur)
	}()
	wg.Wait()
	loadCPU := cpuSeconds() - cpu0
	sessions.http.CloseIdleConnections()
	ctl.http.CloseIdleConnections()
	stopErr := srv.stop()
	if err := errors.Join(sessErr, ctlErr); err != nil {
		return nil, fmt.Errorf("%s load: %w", name, err)
	}
	if stopErr != nil {
		return nil, stopErr
	}
	res.Attempted = sessions.attempted + ctl.attempted
	res.Failed = sessions.failed + ctl.failed
	res.Reps = len(hosted)
	res.check("sessions completed", len(hosted) > 0, "%d sessions", len(hosted))

	// Correctness after timing: every hosted session against its twin.
	twins := map[int64]twinRun{}
	var seeds []int64
	for _, h := range hosted {
		if _, ok := twins[h.seed]; !ok {
			tw, _, err := playTwin(sessionSpec(h.seed), nil)
			if err != nil {
				return nil, fmt.Errorf("%s twin seed %d: %w", name, h.seed, err)
			}
			twins[h.seed] = tw
			seeds = append(seeds, h.seed)
		}
	}
	mismatched := 0
	bySeed := map[int64][]float64{}
	for _, h := range hosted {
		tw := twins[h.seed]
		if h.digest != tw.digest || !sameEpisodes(h.train, tw.train) {
			mismatched++
		}
		bySeed[h.seed] = append(bySeed[h.seed], h.turnaround)
		res.Raw["session_seconds"] = append(res.Raw["session_seconds"], h.turnaround)
	}
	res.Failed += mismatched
	res.check("sessions equal in-process twins", mismatched == 0, "%d of %d sessions differ", mismatched, len(hosted))
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var digests []string
	for _, s := range seeds {
		checkGolden(res, fmt.Sprintf("serve/%d", s), twins[s].digest)
		digests = append(digests, fmt.Sprintf("%d:%s", s, twins[s].digest))
	}
	res.Digest = digestBytes([]byte(strings.Join(digests, ",")))

	var turnaround, queueWait, run []float64
	for _, h := range hosted {
		turnaround = append(turnaround, h.turnaround)
		queueWait = append(queueWait, h.queueWait)
		run = append(run, h.run)
	}
	// Sessions of one seed are identical work, so, as for the batch
	// workloads (see estimate), each seed's session costs its fastest
	// turnaround, and one cycle through the seeds the sum of those.
	var cycleRounds, cycleEpisodes int
	var cycleSeconds float64
	for _, s := range seeds {
		cycleRounds += twins[s].attempted
		cycleEpisodes += twins[s].episodes
		cycleSeconds += minOf(bySeed[s])
	}
	throughput := 0.0
	if cycleSeconds > 0 {
		throughput = float64(cycleRounds) / cycleSeconds
		res.Extra.set("episodes_per_s", float64(cycleEpisodes)/cycleSeconds, "1/s", "higher")
	}
	res.Extra.set("session_p50_s", median(turnaround), "s", "lower")
	res.Extra.set("ctl_p50_ms", percentile(steps[0].latencyMS, 50), "ms", "lower")
	maxRPS := 0.0
	var late []float64
	for i, st := range steps {
		name := "ctl_p99_ms" // at the first, unloaded rate
		if i > 0 {
			name = fmt.Sprintf("ctl_p99_ms_at_%g", st.rate)
		}
		setTail(res.Extra, name, st.latencyMS, 99, "ms", "lower")
		if res.Extra[name].Value <= ctlLimitMS && !latenessGrows(st.lateMS) {
			maxRPS = st.rate
		}
		late = append(late, st.lateMS...)
	}
	res.Extra.set("ctl_max_rps", maxRPS, "1/s", "higher")
	setFailedFrac(res)

	for _, ep := range []string{"create", "start", "poll", "result"} {
		res.Extra.set("chirond."+ep+"_p50_ms", percentile(sessions.latencyMS[ep], 50), "ms", "lower")
	}
	for _, ep := range []string{"heartbeat", "status"} {
		setTail(res.Extra, "chirond."+ep+"_p99_ms", ctl.latencyMS[ep], 99, "ms", "lower")
	}
	res.Extra.set("chirond.queue_wait_p50_s", median(queueWait), "s", "lower")
	res.Extra.set("chirond.run_p50_s", median(run), "s", "lower")
	res.Extra.set("chirond.cpu_s", srv.cpuSeconds, "s", "")
	setTail(res.Extra, "loadgen.late_p99_ms", late, 99, "ms", "lower")
	res.Extra.set("loadgen.cpu_s", loadCPU, "s", "")

	if !opt.trace {
		res.Metrics.set("setup_s", median(setups), "s", "lower")
		res.Metrics.set("rounds_per_s", throughput, "1/s", "higher")
		res.Metrics.set("peak_rss_mb", srv.maxRSSMB, "MB", "lower")
		return res, nil
	}
	return res, traceServe(res, opt, seeds, twins, median(turnaround), spans)
}

// traceServe adds the serve workload's per-layer metrics: the same session
// spec through internal/session without HTTP, and the in-process twin
// through the traced driver pass and the stage replay.
func traceServe(res *Result, opt options, seeds []int64, twins map[int64]twinRun, sessionP50 float64, spans *spanSink) error {
	var inproc []float64
	for _, s := range seeds {
		t0 := time.Now()
		sess, err := session.New(session.Config{Spec: sessionSpec(s)})
		if err != nil {
			return err
		}
		if err := sess.Start(); err != nil {
			return err
		}
		if st := sess.Wait(); st != session.StateDone {
			return fmt.Errorf("in-process session seed %d ended %s: %v", s, st, sess.Err())
		}
		inproc = append(inproc, since(t0))
		r, err := sess.Result()
		if err != nil {
			return err
		}
		res.check(fmt.Sprintf("in-process session seed %d", s), r.Digest() == twins[s].digest, "digest %s", r.Digest())
	}
	res.Extra.set("session.inproc_p50_s", median(inproc), "s", "lower")
	res.Extra.set("chirond.overhead_p50_s", sessionP50-median(inproc), "s", "lower")

	// Two plain and two traced plays of the seed's spec, alternating, for
	// trace.overhead.
	spec := sessionSpec(opt.seed)
	var plainWall, tracedWall []float64
	var ledgers []ledger
	var last *tracedPass
	var plain twinRun
	var rc runtimeCounters
	epoch := time.Now()
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		var err error
		rc, err = measureRuntime(func() error {
			var err error
			plain, _, err = playTwin(spec, nil)
			return err
		})
		if err != nil {
			return err
		}
		plainWall = append(plainWall, since(t0))
		rec := newRecorder(epoch, fmt.Sprintf("in-process %d", i+1))
		t0 = time.Now()
		traced, pass, err := playTwin(spec, rec)
		if err != nil {
			return err
		}
		tracedWall = append(tracedWall, since(t0))
		res.Attempted += 2 * plain.episodes
		if traced.digest != plain.digest {
			res.Failed += plain.episodes
		}
		var l ledger
		l.addRecorder(rec)
		l.addPass(pass)
		ledgers = append(ledgers, l)
		spans.add(res.Workload, rec)
		last = pass
	}
	res.check("traced equals untraced", res.Failed == 0, "in-process twin digest %s", plain.digest)
	cells, err := spec.Cells()
	if err != nil {
		return err
	}
	twinCell, err := scenario.OpenCell(spec, cells[0])
	if err != nil {
		return err
	}
	stages, err := replayStages(twinCell.Mechanism().Env(), last.actor.tape)
	res.check("stage replay", err == nil, "%d rounds replayed through the stage chain; %v", stages.attempted, errText(err))
	if err != nil {
		res.Failed++
	}
	layerMetrics(ledgers, stages, res)
	setRuntime(res.Metrics, rc, plain.attempted)
	setOverhead(res.Metrics, median(tracedWall), median(plainWall))
	setFailedFrac(res)
	return nil
}
