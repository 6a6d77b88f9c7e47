package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"ptdft/internal/observe"
	"ptdft/internal/server"
	"ptdft/internal/sim"
)

// The jobs-mixed traffic: jobClients closed-loop clients against an
// in-process ptdftd with jobWorkers workers. Each client submits a job,
// follows its SSE stream to the end, then submits the next one. Jobs come
// in blocks of blockLen: every block holds exactly one Ehrenfest MD job
// (the rest are LDA delta-kick jobs), one job with a never-seen SCF key
// (a cache miss by construction; the others reuse a key already drawn for
// their kind) and one job preempted after its preemptAfter-th streamed
// sample, at positions the seed chooses. Stratifying keeps every share
// exact in each run instead of binomially spread across seeds. Before the
// window one warm-up job per kind solves the first key of its pool, so
// the first block's reused keys hit the cache like every later block's.
const (
	jobWorkers   = 2
	jobClients   = 2
	blockLen     = 4 // so MD, fresh-key and preempted shares are 1/4 each
	ckptEvery    = 2 // periodic durable checkpoint every N steps
	preemptAfter = 3
	resumeTol    = 1e-8 // |E_final(preempted) - E_final(uninterrupted)| (Ha)
	missProbes   = 16   // cold jobs run one at a time outside the window, for ground_state_s
	jobGrace     = 90 * time.Second
)

// jobPlan is one generated job: the spec the server receives and whether
// the client preempts it.
type jobPlan struct {
	Spec    sim.Spec
	Preempt int // preempt after this many streamed samples; 0 = never
}

// jobMix generates a seed's job sequence, block by block.
type jobMix struct {
	rng   *rand.Rand
	used  [2][]int64 // SCF seeds drawn so far: [0] LDA, [1] MD
	block []jobPlan  // the rest of the current block
}

func newJobMix(seed int64) *jobMix {
	m := &jobMix{rng: rand.New(rand.NewSource(seed))}
	m.freshKey(0)
	m.freshKey(1)
	return m
}

// warmup returns the jobs that put each kind's first key in the cache.
func (m *jobMix) warmup() []jobPlan {
	return []jobPlan{{Spec: jobSpec(false, m.used[0][0])}, {Spec: jobSpec(true, m.used[1][0])}}
}

func (m *jobMix) next() jobPlan {
	if len(m.block) == 0 {
		md, fresh, preempt := m.rng.Intn(blockLen), m.rng.Intn(blockLen), m.rng.Intn(blockLen)
		for i := range blockLen {
			kind := 0
			if i == md {
				kind = 1
			}
			var key int64
			if i == fresh {
				key = m.freshKey(kind)
			} else {
				key = m.used[kind][m.rng.Intn(len(m.used[kind]))]
			}
			p := jobPlan{Spec: jobSpec(kind == 1, key)}
			if i == preempt {
				p.Preempt = preemptAfter
			}
			m.block = append(m.block, p)
		}
	}
	p := m.block[0]
	m.block = m.block[1:]
	return p
}

// probe returns a job of the given kind with a never-seen SCF key and a
// single step, so that on an idle daemon its run is mostly the cold
// ground state.
func (m *jobMix) probe(md bool) jobPlan {
	kind := 0
	if md {
		kind = 1
	}
	s := jobSpec(md, m.freshKey(kind))
	if md {
		s.IonSteps = 1
	} else {
		s.Steps = 1
	}
	return jobPlan{Spec: s}
}

func (m *jobMix) freshKey(kind int) int64 {
	for {
		key := m.rng.Int63n(1<<31) + 1
		if !slices.Contains(m.used[kind], key) {
			m.used[kind] = append(m.used[kind], key)
			return key
		}
	}
}

// jobSpec is the serial semilocal Si8 job of either kind: 8 delta-kick
// PT-CN steps, or 8 Ehrenfest ion steps of 2 electronic steps each from a
// displaced atom.
func jobSpec(md bool, seed int64) sim.Spec {
	s := sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, Seed: seed}
	if md {
		s.MD, s.IonSteps, s.IonDtAs, s.DtAs, s.Displace = true, 8, 48, 24, "0:0.2,0,0"
	} else {
		s.Steps, s.Kick = 8, 0.02
	}
	return s
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	plan          jobPlan
	id            string
	latency       float64 // submit to end of stream (s)
	first         float64 // submit to first streamed sample (s)
	streamed      int
	state         string
	preemptMissed bool // the job finished before the preempt request landed
	view          server.View
	err           error
}

// workDir is where the benchmark keeps server directories: inside the
// build directory of the checkout.
func workDir(name string) string {
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	return filepath.Join(base, "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
}

// daemon is one in-process ptdftd on a loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startDaemon(dir string, logf func(string, ...any)) (*daemon, error) {
	srv, err := server.New(server.Config{Workers: jobWorkers, Dir: dir, CkptEvery: ckptEvery, Logf: logf})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, then drains the workers.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	d.srv.Drain()
}

// preemptLog collects the step at which each job was preempted, from the
// server's progress notices.
type preemptLog struct {
	mu sync.Mutex
	at map[string][]int
}

func (p *preemptLog) logf(format string, args ...any) {
	if format != "job %s preempted at step %d; requeued" || len(args) != 2 {
		return
	}
	id, _ := args[0].(string)
	step, _ := args[1].(int)
	p.mu.Lock()
	p.at[id] = append(p.at[id], step)
	p.mu.Unlock()
}

func runJobs(c *run) (*report, error) {
	rep := newReport()
	root := workDir(c.workload)
	defer os.RemoveAll(root)
	plog := &preemptLog{at: make(map[string][]int)}

	// Set-up rounds run before the warm-up, before the window and after
	// it, so the set-ups sample the whole run and not one stretch of it.
	var setups []float64
	setupRound := func(round int) error {
		if c.traced {
			return nil
		}
		times, err := measureSetups(root, round, plog.logf)
		setups = append(setups, times...)
		return err
	}
	if err := setupRound(0); err != nil {
		return nil, err
	}
	dir := filepath.Join(root, "server")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, plog.logf)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(c.seconds*float64(time.Second))+jobGrace)
	defer cancel()

	mix := newJobMix(c.seed)
	var mu sync.Mutex
	var outcomes []*jobOutcome
	var wg sync.WaitGroup
	// Warm-up: one job per kind, concurrently, before the window opens.
	warm := mix.warmup()
	warmed := make([]*jobOutcome, len(warm))
	for i, plan := range warm {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmed[i] = runJob(ctx, client, d.url, plan)
		}()
	}
	wg.Wait()

	// A cache miss inside the window solves beside whatever the other
	// worker runs, so its SCF wall swings with that load. ground_state_s
	// takes the miss cost from cold jobs submitted one at a time to the
	// idle daemon instead, half before the window and half after it.
	runProbes := func(n int) (out []*jobOutcome) {
		if c.traced {
			return nil
		}
		for i := range n {
			out = append(out, runJob(ctx, client, d.url, mix.probe(i%2 == 1)))
		}
		return out
	}
	probes := runProbes(missProbes / 2)
	if err := setupRound(1); err != nil {
		return nil, err
	}

	// The daemon's peak resident set is taken over the window only; if the
	// kernel count cannot be reset it covers the whole process.
	rssNote := "VmHWM over the window"
	if resetPeakRSS() != nil {
		rssNote = "VmHWM of the whole process"
	}
	start := time.Now()
	c.deadline = start.Add(time.Duration(c.seconds * float64(time.Second)))
	for range jobClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.remaining() > 0 {
				mu.Lock()
				plan := mix.next()
				mu.Unlock()
				o := runJob(ctx, client, d.url, plan)
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	rss, rssErr := peakRSSMB()

	probes = append(probes, runProbes(missProbes-missProbes/2)...)
	if err := setupRound(2); err != nil {
		return nil, err
	}

	if len(completed(outcomes)) == 0 {
		return nil, fmt.Errorf("none of the %d jobs in the window completed", len(outcomes))
	}
	all := slices.Concat(warmed, outcomes, probes)
	refs, err := referenceEnergies(all)
	if err != nil {
		return nil, err
	}
	for _, o := range all {
		errs := checkJob(o, refs)
		if slices.Contains(probes, o) && o.err == nil && o.view.Metrics.SCFCacheHit {
			errs = append(errs, "a probe with a fresh SCF key hit the cache")
		}
		rep.op("job "+o.id, errs)
	}
	if c.traced {
		jobLayers(rep, outcomes, plog)
	} else {
		if rssErr != nil {
			return nil, rssErr
		}
		jobEndToEnd(rep, setups, outcomes, probes, window, rss, rssNote)
	}
	return rep, nil
}

// measureSetups times setupBatches batches of setupBatch daemon
// start-ups, each on an empty directory, and stops the daemons again.
func measureSetups(root string, round int, logf func(string, ...any)) ([]float64, error) {
	var times []float64
	for b := range setupBatches {
		dirs := make([]string, setupBatch)
		for i := range dirs {
			dirs[i] = filepath.Join(root, fmt.Sprintf("setup-%d-%d-%d", round, b, i))
			if err := os.MkdirAll(dirs[i], 0o755); err != nil {
				return times, err
			}
		}
		batch := make([]*daemon, 0, setupBatch)
		t0 := time.Now()
		var err error
		for _, dir := range dirs {
			var x *daemon
			if x, err = startDaemon(dir, logf); err != nil {
				break
			}
			batch = append(batch, x)
		}
		elapsed := time.Since(t0).Seconds()
		for _, x := range batch {
			x.stop()
		}
		if err != nil {
			return times, err
		}
		times = append(times, elapsed/setupBatch)
	}
	return times, nil
}

// runJob submits one job, follows its stream to the terminal state event
// (preempting it on the way if planned), and fetches its final record.
func runJob(ctx context.Context, client *http.Client, url string, plan jobPlan) *jobOutcome {
	o := &jobOutcome{plan: plan}
	body, err := json.Marshal(plan.Spec)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	var v server.View
	if o.err = call(ctx, client, "POST", url+"/jobs", body, http.StatusCreated, &v); o.err != nil {
		return o
	}
	o.id = v.ID
	o.err = follow(ctx, client, url, o, t0)
	o.latency = time.Since(t0).Seconds()
	if o.err == nil {
		o.err = call(ctx, client, "GET", url+"/jobs/"+o.id, nil, http.StatusOK, &o.view)
	}
	return o
}

// follow reads the job's SSE stream until it closes.
func follow(ctx context.Context, client *http.Client, url string, o *jobOutcome, t0 time.Time) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url+"/jobs/"+o.id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: status %s", resp.Status)
	}
	return readEvents(resp.Body, func(event string, data []byte) error {
		switch event {
		case "sample":
			var s observe.Sample
			if err := json.Unmarshal(data, &s); err != nil {
				return fmt.Errorf("stream sample: %w", err)
			}
			o.streamed++
			if o.streamed == 1 {
				o.first = time.Since(t0).Seconds()
			}
			if o.streamed == o.plan.Preempt {
				err := call(ctx, client, "POST", url+"/jobs/"+o.id+"/preempt", nil, http.StatusOK, nil)
				var se *statusError
				if errors.As(err, &se) && se.code == http.StatusConflict {
					o.preemptMissed = true
				} else if err != nil {
					return err
				}
			}
		case "state":
			var st struct{ State string }
			if err := json.Unmarshal(data, &st); err != nil {
				return fmt.Errorf("stream state: %w", err)
			}
			o.state = st.State
		}
		return nil
	})
}

// readEvents calls fn for each Server-Sent Event (event name and data)
// until the stream ends.
func readEvents(r io.Reader, fn func(event string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := fn(event, []byte(strings.TrimPrefix(line, "data: "))); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// call makes one JSON API request and decodes the response into out (when
// non-nil), failing on any status but want.
func call(ctx context.Context, client *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %w", method, url, &statusError{resp.StatusCode, strings.TrimSpace(string(data))})
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func finalEnergy(v server.View) float64 {
	if len(v.Samples) == 0 {
		return math.NaN()
	}
	return v.Samples[len(v.Samples)-1].Energy
}

// referenceEnergies gives the uninterrupted final energy of every spec
// that was preempted: from a job of the same spec that ran through, else
// from a cold in-process sim.Run after the measurement window.
func referenceEnergies(outcomes []*jobOutcome) (map[sim.Spec]float64, error) {
	refs := make(map[sim.Spec]float64)
	for _, o := range outcomes {
		if o.err == nil && o.view.State == server.StateDone && o.view.Metrics.Preemptions == 0 {
			refs[o.plan.Spec] = finalEnergy(o.view)
		}
	}
	for _, o := range outcomes {
		if o.view.Metrics.Preemptions == 0 {
			continue
		}
		if _, ok := refs[o.plan.Spec]; ok {
			continue
		}
		spec := o.plan.Spec
		res, err := sim.Run(&spec, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("uninterrupted reference for job %s: %w", o.id, err)
		}
		refs[o.plan.Spec] = res.Samples[len(res.Samples)-1].Energy
	}
	return refs, nil
}

// checkJob gates one job: it reached done with every sample streamed and
// recorded, and a preempted job ended on the uninterrupted final energy.
func checkJob(o *jobOutcome, refs map[sim.Spec]float64) []string {
	if o.err != nil {
		return []string{o.err.Error()}
	}
	var errs []string
	want := o.plan.Spec.TotalSteps()
	if o.state != string(server.StateDone) || o.view.State != server.StateDone {
		errs = append(errs, fmt.Sprintf("ended %q (record %q, error %q), want done", o.state, o.view.State, o.view.Error))
	}
	if o.streamed != want || len(o.view.Samples) != want {
		errs = append(errs, fmt.Sprintf("%d samples streamed, %d recorded, want %d", o.streamed, len(o.view.Samples), want))
	}
	if o.view.Metrics.Preemptions > 0 {
		if d := math.Abs(finalEnergy(o.view) - refs[o.plan.Spec]); !(d <= resumeTol) {
			errs = append(errs, fmt.Sprintf("preempted job's final energy differs from the uninterrupted run by %.3e Ha", d))
		}
	}
	return errs
}

// completed returns the jobs that reached done.
func completed(outcomes []*jobOutcome) []*jobOutcome {
	var out []*jobOutcome
	for _, o := range outcomes {
		if o.err == nil && o.view.State == server.StateDone {
			out = append(out, o)
		}
	}
	return out
}

func propSec(v server.View) float64 {
	var t float64
	for _, s := range v.Samples {
		t += s.WallSec
	}
	return t
}

func jobEndToEnd(rep *report, setups []float64, outcomes, probes []*jobOutcome, window, rss float64, rssNote string) {
	ok := completed(outcomes)
	n := len(ok)
	var misses []float64
	var wall, fs float64
	for _, o := range ok {
		if !o.view.Metrics.SCFCacheHit {
			misses = append(misses, o.view.Metrics.SCFWallSec)
		}
		wall += propSec(o.view)
		fs += o.view.Samples[len(o.view.Samples)-1].TimeFs
	}
	cold := collect(completed(probes), func(o *jobOutcome) float64 { return o.view.Metrics.SCFWallSec })
	rep.set("setup_s", median(setups), "median of %d batches of %d server.New on an empty dir + loopback listener, in rounds before, between and after the probes and window", len(setups), setupBatch)
	rep.set("ground_state_s", median(cold), "median SCF wall of %d cold jobs run one at a time on the idle daemon, half before and half after the window", len(cold))
	rep.remark("SCF wall of the %d cache misses inside the window, beside the other worker's load: median %.3f s", len(misses), median(misses))
	rep.set("wall_per_fs_s", wall/fs, "propagation wall summed over %d jobs / %.3f fs simulated", n, fs)
	rep.set("time_to_solution_s", median(collect(ok, func(o *jobOutcome) float64 {
		return o.view.Metrics.SCFWallSec + propSec(o.view)
	})), "median of %d jobs (SCF wall + propagation wall)", n)
	rep.set("peak_rss_mb", rss, "%s", rssNote)
	rep.set("jobs_per_hour", 3600*float64(n)/window, "%d jobs done in %.1f s by %d closed-loop clients", n, window, jobClients)
	rep.set("job_latency_p50_s", median(collect(ok, func(o *jobOutcome) float64 { return o.latency })),
		"median of %d (submit to end of stream)", n)
	rep.set("first_sample_p50_s", median(collect(ok, func(o *jobOutcome) float64 { return o.first })),
		"median of %d (submit to first streamed sample)", n)
	classes := make(map[string][]float64)
	for _, o := range ok {
		name := "lda"
		if o.plan.Spec.MD {
			name = "md"
		}
		if !o.view.Metrics.SCFCacheHit {
			name += "+miss"
		}
		if o.view.Metrics.Preemptions > 0 {
			name += "+preempted"
		}
		classes[name] = append(classes[name], o.latency)
	}
	for _, name := range slices.Sorted(maps.Keys(classes)) {
		rep.remark("latency of %s jobs: median %.3f s of %d", name, median(classes[name]), len(classes[name]))
	}
}

func jobLayers(rep *report, outcomes []*jobOutcome, plog *preemptLog) {
	ok := completed(outcomes)
	n := len(ok)
	var hits, preempts, resumes, saves, missed int
	var scfWall, ckptSec, drift float64
	var ionSteps, steps, inner []float64
	for _, o := range ok {
		m := o.view.Metrics
		if m.SCFCacheHit {
			hits++
		}
		scfWall += m.SCFWallSec
		preempts += m.Preemptions
		resumes += m.Resumes
		ckptSec += m.PhaseSeconds["checkpoint"]
		plog.mu.Lock()
		at := plog.at[o.id]
		plog.mu.Unlock()
		if len(at) != m.Preemptions {
			rep.remark("job %s: %d preemptions but %d logged preempt steps; checkpoint.saves counts it as uninterrupted", o.id, m.Preemptions, len(at))
			at = nil
		}
		saves += periodicSaves(o.plan.Spec.TotalSteps(), ckptEvery, at)
		if o.preemptMissed {
			missed++
		}
		if o.plan.Spec.MD {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, s := range o.view.Samples {
				ionSteps = append(ionSteps, s.WallSec*1e3)
				lo, hi = min(lo, s.Energy), max(hi, s.Energy)
			}
			drift = max(drift, hi-lo)
		} else {
			var iters int
			for _, s := range o.view.Samples {
				steps = append(steps, s.WallSec*1e3)
				iters += s.SCFIters
			}
			inner = append(inner, float64(iters))
		}
	}
	lat := tailOf(collect(ok, func(o *jobOutcome) float64 { return o.latency }))
	rep.set("server.queue_wait_p50_s", median(collect(ok, func(o *jobOutcome) float64 {
		return o.view.StartedAt.Sub(o.view.SubmittedAt).Seconds()
	})), "median of %d (submitted to first attempt started)", n)
	rep.set("server.run_p50_s", median(collect(ok, func(o *jobOutcome) float64 {
		return o.view.FinishedAt.Sub(o.view.StartedAt).Seconds()
	})), "median of %d (first attempt started to done)", n)
	rep.set("server.job_latency_tail_s", lat.Value, "p%g of %d job latencies", lat.Q, lat.N)
	rep.set("server.scf_hit_ratio", float64(hits)/float64(n), "%d hits of %d jobs (1 in %d keys is fresh by construction)", hits, n, blockLen)
	rep.set("server.scf_wall_s", scfWall/float64(n), "mean SCF wall per job over %d jobs", n)
	rep.set("server.preemptions", float64(preempts), "over %d jobs (%d planned preempts landed after the job ended)", n, missed)
	rep.set("server.resumes", float64(resumes), "over %d jobs", n)
	rep.set("checkpoint.saves", float64(saves), "periodic saves every %d steps, counted from each attempt's logged segment", ckptEvery)
	perSave := 0.0
	if saves > 0 {
		perSave = ckptSec / float64(saves)
	}
	rep.set("checkpoint.save_s", perSave, "mean per periodic save (checkpoint spans in Metrics.PhaseSeconds); final saves are untimed")
	st := tailOf(steps)
	rep.set("ptcn.inner_scf_iters", median(inner), "median over %d LDA jobs of the summed Sample.SCFIters", len(inner))
	rep.set("sim.step_p50_ms", median(steps), "median of %d PT-CN steps of LDA jobs", len(steps))
	rep.set("sim.step_tail_ms", st.Value, "p%g of %d PT-CN steps of LDA jobs", st.Q, st.N)
	rep.set("ion.step_p50_ms", median(ionSteps), "median of %d Ehrenfest ion steps", len(ionSteps))
	rep.set("ion.energy_drift_ha", drift, "max over MD jobs of max-min conserved total energy")
	rep.remark("checkpoint load runs only when a restarted server adopts a job; preempted jobs here resume from the in-memory state")
	for _, d := range perLayer {
		if _, ok := rep.values[d.Name]; !ok {
			rep.set(d.Name, 0, "n/a: %s", jobNA(d.Name))
		}
	}
}

func jobNA(name string) string {
	switch layerOf(name) {
	case "trace":
		return "ptdftd records every attempt on an internal recorder and exposes only its PhaseSeconds"
	case "fock", "fourier", "mpi":
		return "serial semilocal jobs run no exchange and no communicator"
	}
	return "ptdftd exposes no SCF iteration counts or per-span self times for a job"
}

// periodicSaves counts the periodic checkpoints of a job of total steps
// with cadence every, preempted after the given cumulative steps: each
// attempt saves after every every-th step of its segment except the last.
func periodicSaves(total, every int, preemptedAt []int) int {
	n, start := 0, 0
	count := func(done, seg int) {
		for s := 1; s <= done; s++ {
			if s%every == 0 && s < seg {
				n++
			}
		}
	}
	for _, p := range preemptedAt {
		count(p-start, total-start)
		start = p
	}
	count(total-start, total-start)
	return n
}
