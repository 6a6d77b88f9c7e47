package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ptdft/internal/hamiltonian"
	"ptdft/internal/mpi"
	"ptdft/internal/observe"
	"ptdft/internal/scf"
	"ptdft/internal/sim"
	"ptdft/internal/trace"
	"ptdft/internal/wavefunc"
	"ptdft/internal/xc"
)

// simWorkload is one in-process simulation: a cold ground state, then a
// delta-kick PT-CN propagation from it through sim.Run (the path ptdftd
// takes on an SCF-cache miss).
type simWorkload struct {
	spec sim.Spec
	// refEnergy is the converged ground-state total energy (Ha) every cold
	// solve must reproduce, within energyTol.
	refEnergy float64
	// driftPerStep bounds |E(step n) - E(step 1)| after the kick, per
	// step: the Hamiltonian is time independent after a delta kick, so the
	// total energy is conserved up to the integrator's error.
	driftPerStep float64
}

var simWorkloads = map[string]simWorkload{
	// Serial exact-exchange HSE: the ground-state SCF dominates.
	"hybrid-serial": {
		spec:      sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, Hybrid: true, Steps: 16, Kick: 0.02},
		refEnergy: -0.9858249417,
		// PT-CN with the exchange updated inside every inner SCF drifts
		// about 7e-6 Ha per step here.
		driftPerStep: 3e-5,
	},
	// The paper's propagation configuration on 2 goroutine-MPI ranks.
	"hybrid-2rank-ace": {
		spec: sim.Spec{Cells: [3]int{1, 1, 1}, Ecut: 3, Hybrid: true, ACE: true, MTS: 2,
			Ranks: 2, Exchange: "overlap", Steps: 32, Kick: 0.02},
		refEnergy: -0.9857461859,
		// MTS freezes the exchange between refreshes, so energy is not
		// conserved to integrator accuracy: TestDistributedMTSAccuracy pins
		// the M=2 ACE energy deviation at 4e-3 Ha per 4 steps, 1e-3 Ha per
		// step (measured here: about 3e-4 Ha per step).
		driftPerStep: 1e-3,
	},
}

const (
	// setup_s is the median over several rounds, spread over the run, of
	// setupBatches batches each; a batch gives the mean set-up time of
	// setupBatch consecutive set-ups: one set-up is ~0.1 ms, too short to
	// time alone.
	setupBatches = 31
	setupBatch   = 20
	orthTol      = 1e-8 // max |Psi^H Psi - I| after propagation
	gsTrackID    = 1000 // recorder track of the traced ground state (ranks use 0..P-1)
)

// energyTol is the ground-state energy tolerance for nelec electrons: the
// first-order energy change of the SCF's own density threshold (per
// electron) in a potential of order 1 Ha.
func energyTol(nelec int) float64 {
	return float64(nelec) * scf.Defaults().TolDensity
}

// simIter is one cold run: ground state plus propagation.
type simIter struct {
	seed             int64
	gsSec, propSec   float64
	firstSec, ttsSec float64
	simFs            float64
	peakRSSMB        float64 // untimed runs: peak resident set during the run (0 = not measured)
	gs               *scf.Result
	res              *sim.Result
	rec              *trace.Recorder // traced runs only
	scfSpanSec       float64         // traced runs: the scf span on the ground-state track
}

// iterate runs spec cold. With rec set it solves the ground state through
// the same public calls sim.GroundState makes, with the recorder attached
// to the Hamiltonian and to the propagation.
func iterate(spec sim.Spec, rec *trace.Recorder) (*simIter, error) {
	it := &simIter{seed: spec.Seed, rec: rec}
	start := time.Now()
	var err error
	if rec == nil {
		it.gs, err = sim.GroundState(&spec)
	} else {
		it.gs, err = tracedGroundState(&spec, rec.Track(gsTrackID, "ground state"), &it.scfSpanSec)
	}
	if err != nil {
		return nil, fmt.Errorf("ground state: %w", err)
	}
	it.gsSec = time.Since(start).Seconds()
	var first time.Duration
	propStart := time.Now()
	it.res, err = sim.Run(&spec, sim.Options{
		Ground: it.gs,
		Trace:  rec,
		OnSample: func(observe.Sample) {
			if first == 0 {
				first = time.Since(start)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("propagation: %w", err)
	}
	it.propSec = time.Since(propStart).Seconds()
	it.ttsSec = time.Since(start).Seconds()
	it.firstSec = first.Seconds()
	if n := len(it.res.Samples); n > 0 {
		it.simFs = it.res.Samples[n-1].TimeFs
	}
	return it, nil
}

func tracedGroundState(spec *sim.Spec, tr *trace.Track, scfSec *float64) (*scf.Result, error) {
	_, g, nb, err := spec.System()
	if err != nil {
		return nil, err
	}
	h := hamiltonian.New(g, spec.Pots(), hamiltonian.Config{
		Hybrid: spec.Hybrid, UseACE: spec.ACE, Params: xc.HSE06(), IonDynamics: spec.MD,
	})
	h.SetTrace(tr)
	o := scf.Defaults()
	o.Seed = spec.Seed
	ref := tr.Begin("scf", "scf")
	t0 := time.Now()
	gs, err := scf.GroundState(g, h, nb, o)
	*scfSec = time.Since(t0).Seconds()
	tr.End(ref)
	return gs, err
}

// check gates one run on gauge-invariant quantities only.
func (w simWorkload) check(it *simIter) []string {
	var errs []string
	nb := len(it.gs.BandEnergies)
	if tol := energyTol(2 * nb); math.Abs(it.gs.Energy.Total()-w.refEnergy) > tol || !it.gs.Converged {
		errs = append(errs, fmt.Sprintf("ground-state energy %.10f Ha (converged %v), reference %.10f +- %.1e",
			it.gs.Energy.Total(), it.gs.Converged, w.refEnergy, tol))
	}
	smp := it.res.Samples
	if len(smp) != w.spec.Steps {
		errs = append(errs, fmt.Sprintf("%d samples, want %d", len(smp), w.spec.Steps))
	}
	if d, bound := maxDrift(smp), w.driftPerStep*float64(w.spec.Steps); len(smp) > 0 && !(d <= bound) {
		errs = append(errs, fmt.Sprintf("energy drift %.3e Ha over %d steps, bound %.1e", d, len(smp), bound))
	}
	if ng := len(it.res.Psi) / max(nb, 1); len(it.res.Psi) == 0 || !(wavefunc.OrthonormalityError(it.res.Psi, nb, ng) <= orthTol) {
		errs = append(errs, fmt.Sprintf("final orbitals not orthonormal within %.0e", orthTol))
	}
	return errs
}

// maxDrift is max |E_n - E_1| over a trajectory's samples.
func maxDrift(smp []observe.Sample) float64 {
	var d float64
	for _, s := range smp {
		d = max(d, math.Abs(s.Energy-smp[0].Energy))
	}
	return d
}

func runSim(c *run) (*report, error) {
	w := simWorkloads[c.workload]
	rep := newReport()

	// One set-up round before each unit and one after the last, so the
	// set-ups sample the whole run and not one stretch of it.
	var setups []float64
	setupRound := func() error {
		if c.traced {
			return nil
		}
		for range setupBatches {
			t0 := time.Now()
			for range setupBatch {
				spec := w.spec
				if err := spec.Validate(); err != nil {
					return err
				}
				if _, _, _, err := spec.System(); err != nil {
					return err
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		}
		return nil
	}
	// Normalize the workload's own copy once; every run below copies it.
	if err := w.spec.Validate(); err != nil {
		return nil, err
	}

	// A unit is one cold run, or with tracing an untimed run and a traced
	// run of the same spec. Units start while one more fits the window.
	rng := rand.New(rand.NewSource(c.seed))
	minUnits := 3
	if c.traced {
		minUnits = 2
	}
	var plain, traced []*simIter
	c.deadline = time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	var unit time.Duration
	for n := 0; n < minUnits || c.remaining() >= unit; n++ {
		if err := setupRound(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		spec := w.spec
		spec.Seed = rng.Int63n(1<<31) + 1
		rssErr := resetPeakRSS()
		it, err := iterate(spec, nil)
		if err == nil && rssErr == nil {
			if it.peakRSSMB, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		rep.op(fmt.Sprintf("run seed %d", spec.Seed), opErrs(err, w, it))
		if err == nil {
			plain = append(plain, it)
		}
		if c.traced {
			tit, err := iterate(spec, trace.NewRecorder())
			errs := opErrs(err, w, tit)
			if err == nil && it != nil {
				if d := math.Abs(tit.gs.Energy.Total() - it.gs.Energy.Total()); d > energyTol(2*len(it.gs.BandEnergies)) {
					errs = append(errs, fmt.Sprintf("traced ground-state energy differs from the untimed solve by %.3e Ha", d))
				}
			}
			rep.op(fmt.Sprintf("traced run seed %d", spec.Seed), errs)
			if err == nil {
				traced = append(traced, tit)
			}
		}
		unit = time.Since(t0)
	}
	if err := setupRound(); err != nil {
		return nil, err
	}
	if len(plain) == 0 || (c.traced && len(traced) == 0) {
		return rep, fmt.Errorf("no run completed: %v", rep.failures)
	}
	if c.traced {
		simLayers(rep, w, plain, traced)
	} else if err := simEndToEnd(rep, setups, plain); err != nil {
		return nil, err
	}
	return rep, nil
}

func opErrs(err error, w simWorkload, it *simIter) []string {
	if err != nil {
		return []string{err.Error()}
	}
	return w.check(it)
}

func simEndToEnd(rep *report, setups []float64, plain []*simIter) error {
	n := len(plain)
	tts := collect(plain, func(it *simIter) float64 { return it.ttsSec })
	rep.set("setup_s", median(setups), "median of %d batches of %d spec validations + Spec.System, in rounds between the runs", len(setups), setupBatch)
	rep.set("ground_state_s", median(collect(plain, func(it *simIter) float64 { return it.gsSec })),
		"median of %d cold sim.GroundState solves", n)
	rep.set("wall_per_fs_s", median(collect(plain, func(it *simIter) float64 { return it.propSec / it.simFs })),
		"median of %d propagations (sim.Run wall / %.3f fs)", n, plain[0].simFs)
	rep.set("time_to_solution_s", median(tts), "median of %d runs (ground state + propagation)", n)
	if rss := collect(plain, func(it *simIter) float64 { return it.peakRSSMB }); rss[0] > 0 {
		rep.set("peak_rss_mb", median(rss), "median of %d runs' VmHWM, reset before each", n)
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.set("peak_rss_mb", rss, "VmHWM of the whole process (the peak could not be reset per run)")
	}
	rep.set("jobs_per_hour", 3600*float64(n)/sum(tts), "%d runs back to back, one at a time", n)
	rep.set("job_latency_p50_s", median(tts), "median of %d; in process a job is one run, so this is time_to_solution_s", n)
	rep.set("first_sample_p50_s", median(collect(plain, func(it *simIter) float64 { return it.firstSec })),
		"median of %d (run start to first step's observables)", n)
	return nil
}

// simLayers folds the traced runs into the per-layer metrics, each the
// median over the traced runs unless stated otherwise.
func simLayers(rep *report, w simWorkload, plain, traced []*simIter) {
	// Step walls of the traced runs count too: recording costs well under
	// 1% of a step, and a tail needs 10 steps beyond it.
	var steps []float64
	for _, it := range slices.Concat(plain, traced) {
		for _, s := range it.res.Samples {
			steps = append(steps, s.WallSec*1e3)
		}
	}
	layer := make(map[string][]float64)
	add := func(name string, v float64) { layer[name] = append(layer[name], v) }
	var repeat float64
	for i, it := range traced {
		ranks := foldRecorder(it.rec, func(id int) bool { return id != gsTrackID })
		gs := foldRecorder(it.rec, func(id int) bool { return id == gsTrackID })
		all := slices.Concat(ranks, gs)
		add("scf.iterations", float64(it.gs.SCFIterations))
		add("scf.s_per_iter", it.scfSpanSec/float64(it.gs.SCFIterations))
		add("scf.exchange_self_s", gs.selfSec("exchange", "ace_build", "ace_apply"))
		var inner int
		for _, s := range it.res.Samples {
			inner += s.SCFIters
		}
		add("ptcn.inner_scf_iters", float64(inner))
		add("ptcn.step_self_s", ranks.selfSec("step"))
		add("ptcn.scf_iter_self_s", ranks.selfSec("scf_iter"))
		add("ptcn.residual_self_s", ranks.selfSec("residual"))
		add("ptcn.energy_self_s", ranks.selfSec("energy"))
		add("fock.exchange_self_s", ranks.selfSec("exchange"))
		add("fock.exchange_calls", float64(ranks.calls("exchange")))
		add("fock.contract_self_s", ranks.selfSec("contract"))
		add("fock.ace_build_self_s", ranks.selfSec("ace_build"))
		add("fock.ace_build_calls", float64(ranks.calls("ace_build")))
		add("fock.ace_apply_self_s", ranks.selfSec("ace_apply"))
		add("fourier.fft_self_s", ranks.selfSec("fft_to_real", "fft_from_real"))
		add("potential.density_self_s", ranks.selfSec("density"))
		wait, xfer := ranks.catSec("wait"), ranks.catSec("xfer")
		add("mpi.wait_s", wait)
		add("mpi.transfer_s", xfer)
		add("mpi.wait_share", wait/ranks.busySec())
		for name, class := range mpiClasses {
			var b, n int64
			if st := it.res.Comm; st != nil {
				b, n = st.BytesFor(class), st.CallsFor(class)
			}
			add("mpi.bytes."+name, float64(b))
			add("mpi.calls."+name, float64(n))
		}
		add("observe.self_s", ranks.catSec("observe"))
		add("trace.self_vs_busy", all.selfTotalSec()/all.busySec())
		if i == 0 {
			for _, f := range all {
				rep.remark("track %q: busy %.3f s, self %.3f s, self/busy %.4f", f.Label,
					float64(f.Busy)/1e9, float64(f.Self)/1e9, f.SelfVsBusy())
				if d := f.Self - f.Busy; d > f.Busy/1000 {
					rep.remark("track %q: the fold cannot attribute %.3f s: spans overlap there without nesting (pipelined fetches share the rank's track), so their self times double-bill it",
						f.Label, float64(d)/1e9)
				}
			}
		}
		for _, p := range plain {
			if p.seed == it.seed {
				repeat = max(repeat, wavefunc.MaxDiff(p.gs.Psi, it.gs.Psi))
			}
		}
	}
	nt := len(traced)
	for _, d := range perLayer {
		if vs, ok := layer[d.Name]; ok {
			rep.set(d.Name, median(vs), "median of %d traced runs", nt)
		}
	}
	rep.set("scf.exchange_self_s", median(layer["scf.exchange_self_s"]), "median of %d traced runs; whole-set exchange spans only: the per-band exchange inside Hamiltonian.Apply (LOBPCG trial vectors) has none", nt)
	rep.set("scf.psi_repeat_diff", repeat,
		"max |dPsi| between the untimed and the traced cold solve of one spec, over %d pairs, GOMAXPROCS=%d", nt, runtime.GOMAXPROCS(0))
	st := tailOf(steps)
	rep.set("sim.step_p50_ms", median(steps), "median of %d PT-CN steps, untimed and traced runs", len(steps))
	rep.set("sim.step_tail_ms", st.Value, "p%g of %d PT-CN steps, untimed and traced runs", st.Q, st.N)
	ratio := median(collect(traced, func(it *simIter) float64 { return it.ttsSec })) /
		median(collect(plain, func(it *simIter) float64 { return it.ttsSec }))
	rep.set("trace.overhead_ratio", ratio, "median traced / median untimed time_to_solution_s (%d / %d runs)", nt, len(plain))

	for name, why := range simNA(w) {
		rep.set(name, 0, "n/a: %s", why)
	}
}

var mpiClasses = map[string]mpi.OpClass{
	"bcast":      mpi.ClassBcast,
	"alltoallv":  mpi.ClassAlltoallv,
	"allreduce":  mpi.ClassAllreduce,
	"allgatherv": mpi.ClassAllgatherv,
}

// simNA maps the per-layer metrics a sim workload cannot measure to the
// reason: the job-server layers, plus on a serial run the communicator
// and the spans only the distributed solver records.
func simNA(w simWorkload) map[string]string {
	out := make(map[string]string)
	for _, d := range perLayer {
		switch layerOf(d.Name) {
		case "server", "checkpoint", "ion":
			out[d.Name] = "no job server, checkpoint or ion dynamics in this workload"
		}
	}
	if w.spec.Ranks <= 1 {
		for _, d := range perLayer {
			if layerOf(d.Name) == "mpi" {
				out[d.Name] = "a serial run has no communicator"
			}
		}
		for _, name := range []string{"ptcn.residual_self_s", "ptcn.energy_self_s", "fock.contract_self_s",
			"fourier.fft_self_s", "potential.density_self_s"} {
			out[name] = "the serial propagator records no span here; the time is in its caller's self time"
		}
	}
	return out
}
