package sim

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"ptdft/internal/observe"
	"ptdft/internal/parallel"
)

// testSpec is the smallest real system: Si8, low cutoff, a short PT-CN
// kick trajectory.
func testSpec() Spec {
	return Spec{
		Cells: [3]int{1, 1, 1}, Ecut: 2, Method: "ptcn",
		DtAs: 24, Steps: 6, Kick: 0.02, Seed: 1234, Exchange: "bcast",
	}
}

// TestSpecValidateRules pins the validation table: every rule the CLI
// used to enforce must reject through the spec too.
func TestSpecValidateRules(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Spec)
		want string // substring of the error; "" means valid
	}{
		{"baseline", func(s *Spec) {}, ""},
		{"zero cells", func(s *Spec) { s.Cells[1] = 0 }, "cells"},
		{"zero ecut", func(s *Spec) { s.Ecut = 0 }, "ecut"},
		{"bad method", func(s *Spec) { s.Method = "euler" }, "method"},
		{"negative steps", func(s *Spec) { s.Steps = -1 }, "step count"},
		{"ace without hybrid", func(s *Spec) { s.ACE = true }, "hybrid"},
		{"acehold serial", func(s *Spec) { s.ACEHold = true; s.Hybrid = true }, "distributed"},
		{"mts without hybrid", func(s *Spec) { s.MTS = 4 }, "hybrid"},
		{"mts with rk4", func(s *Spec) { s.MTS = 4; s.Hybrid = true; s.Method = "rk4" }, "PT-CN"},
		{"mts vs acehold", func(s *Spec) { s.MTS = 2; s.ACEHold = true; s.Hybrid = true; s.Ranks = 2 }, "cadence"},
		{"md with rk4", func(s *Spec) { s.MD = true; s.IonSteps = 2; s.Method = "rk4" }, "PT-CN"},
		{"md zero ion steps", func(s *Spec) { s.MD = true; s.IonSteps = 0 }, "ion_steps"},
		{"md bad tiling", func(s *Spec) { s.MD = true; s.IonSteps = 2; s.IonDtAs = 100 }, "multiple"},
		{"negative ranks", func(s *Spec) { s.Ranks = -2 }, "rank"},
		{"distributed rk4", func(s *Spec) { s.Ranks = 2; s.Method = "rk4" }, "ptcn"},
		{"bad exchange", func(s *Spec) { s.Exchange = "quantum" }, "strategy"},
		{"negative steal chunk", func(s *Spec) { s.StealChunk = -1 }, "chunk"},
		{"steal chunk wrong strategy", func(s *Spec) { s.StealChunk = 4 }, "steal"},
		{"bad displace", func(s *Spec) { s.Displace = "frog" }, "displace"},
		{"indivisible bands", func(s *Spec) { s.Ranks = 3 }, "divisible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mod(&s)
			err := s.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSpecNormalizeDefaults: a sparse JSON spec gets the CLI defaults.
func TestSpecNormalizeDefaults(t *testing.T) {
	s := Spec{Cells: [3]int{1, 1, 1}, Ecut: 2, Steps: 1, MD: true, IonSteps: 1, ACEHold: true, Hybrid: true, Ranks: 2}
	s.Normalize()
	if s.Method != "ptcn" || s.Exchange != "overlap" || s.DtAs != 24 || s.IonDtAs != 96 {
		t.Errorf("defaults not filled: %+v", s)
	}
	if !s.ACE {
		t.Error("acehold did not imply ace")
	}
}

// TestSCFKeySensitivity: the cache key must separate every spec
// dimension that changes the converged ground state - including the
// functional-adjacent flags (ACE, MD) that perturb it at round-off.
func TestSCFKeySensitivity(t *testing.T) {
	key := func(mod func(*Spec)) string {
		s := testSpec()
		mod(&s)
		k, err := s.SCFKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	base := key(func(s *Spec) {})
	if base != key(func(s *Spec) {}) {
		t.Fatal("equal specs produced different keys")
	}
	// Steps and kick do NOT change the ground state: same key, so an
	// ensemble over trajectories shares one solve.
	if base != key(func(s *Spec) { s.Steps = 100; s.Kick = 0.5 }) {
		t.Error("trajectory-only fields changed the key")
	}
	if base != key(func(s *Spec) { s.Ranks = 4 }) {
		t.Error("rank layout changed the key")
	}
	for name, mod := range map[string]func(*Spec){
		"ecut":     func(s *Spec) { s.Ecut = 3 },
		"hybrid":   func(s *Spec) { s.Hybrid = true },
		"ace":      func(s *Spec) { s.Hybrid = true; s.ACE = true },
		"md":       func(s *Spec) { s.MD = true; s.IonSteps = 1; s.IonDtAs = 96 },
		"seed":     func(s *Spec) { s.Seed = 99 },
		"cells":    func(s *Spec) { s.Cells = [3]int{1, 1, 2} },
		"displace": func(s *Spec) { s.Displace = "0:0.1,0,0" },
	} {
		if base == key(mod) {
			t.Errorf("%s change did not change the SCF key", name)
		}
	}
}

// TestRunSplitEqualsContinuous: running 3+3 steps through an in-memory
// checkpoint (the server's preempt/resume path, without the disk) agrees
// with the uninterrupted 6-step run - same ground state, same samples,
// same final orbitals.
func TestRunSplitEqualsContinuous(t *testing.T) {
	spec := testSpec()
	cont, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specA := testSpec()
	specA.Steps = 3
	segA, err := Run(&specA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if segA.Final == nil || segA.Final.Step != 3 {
		t.Fatalf("segment A final state covers step %v, want 3", segA.Final)
	}
	specB := testSpec()
	specB.Steps = 3
	segB, err := Run(&specB, Options{Ground: segA.Ground, Resume: segA.Final})
	if err != nil {
		t.Fatal(err)
	}
	if !segB.GroundCached {
		t.Error("supplied ground state not marked cached")
	}
	if segB.Final.Step != 6 {
		t.Errorf("resumed final step %d, want 6", segB.Final.Step)
	}
	all := append(append([]observe.Sample{}, segA.Samples...), segB.Samples...)
	if len(all) != len(cont.Samples) {
		t.Fatalf("split yielded %d samples, continuous %d", len(all), len(cont.Samples))
	}
	for i := range all {
		if all[i].Step != cont.Samples[i].Step {
			t.Errorf("sample %d: step %d vs %d", i, all[i].Step, cont.Samples[i].Step)
		}
		if d := math.Abs(all[i].Energy - cont.Samples[i].Energy); d > 1e-10 {
			t.Errorf("sample %d: energy differs by %g", i, d)
		}
	}
	if len(segB.Psi) != len(cont.Psi) {
		t.Fatalf("psi length %d vs %d", len(segB.Psi), len(cont.Psi))
	}
	var maxd float64
	for i := range cont.Psi {
		if d := cmplx.Abs(segB.Psi[i] - cont.Psi[i]); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-10 {
		t.Errorf("split and continuous orbitals differ by %g, want <= 1e-10", maxd)
	}
}

// TestGroundStateRepeatsBitIdentical: two cold ground-state solves of one
// spec and seed on two workers return bit-identical orbitals. This is the
// SCF-cache contract (same key, same ground state) and the premise of
// every split-equals-continuous identity on a multi-core host: reduction
// order must not depend on which worker finishes first.
func TestGroundStateRepeatsBitIdentical(t *testing.T) {
	defer parallel.SetMaxWorkers(parallel.SetMaxWorkers(2))
	spec := testSpec()
	a, err := GroundState(&spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroundState(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Psi) != len(b.Psi) {
		t.Fatalf("psi length %d vs %d", len(a.Psi), len(b.Psi))
	}
	for i := range a.Psi {
		if a.Psi[i] != b.Psi[i] {
			t.Fatalf("repeat solve differs at %d: %v vs %v", i, a.Psi[i], b.Psi[i])
		}
	}
}

// TestRunPulseSplitEqualsContinuous: the 380nm pulse envelope is a
// function of the TOTAL trajectory length, so a segment resumed through a
// checkpoint must propagate under the identical field as the
// uninterrupted run - Options.PulseSteps carries the total when the
// spec's step count is only the remainder.
func TestRunPulseSplitEqualsContinuous(t *testing.T) {
	pulsed := func(steps int) Spec {
		s := testSpec()
		s.Kick = 0
		s.PulseE0 = 0.005
		s.Steps = steps
		return s
	}
	spec := pulsed(6)
	cont, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	specA := pulsed(3)
	segA, err := Run(&specA, Options{PulseSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	specB := pulsed(3)
	segB, err := Run(&specB, Options{Ground: segA.Ground, Resume: segA.Final, PulseSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]observe.Sample{}, segA.Samples...), segB.Samples...)
	if len(all) != len(cont.Samples) {
		t.Fatalf("split yielded %d samples, continuous %d", len(all), len(cont.Samples))
	}
	for i := range all {
		if d := math.Abs(all[i].Energy - cont.Samples[i].Energy); d > 1e-10 {
			t.Errorf("sample %d: energy differs by %g - the resumed segment saw a different laser field", i, d)
		}
	}
	var maxd float64
	for i := range cont.Psi {
		if d := cmplx.Abs(segB.Psi[i] - cont.Psi[i]); d > maxd {
			maxd = d
		}
	}
	if maxd > 1e-10 {
		t.Errorf("split and continuous orbitals differ by %g, want <= 1e-10", maxd)
	}
}

// TestRunStopAndStream: the Stop channel ends the run after the step in
// flight; OnSample saw exactly the completed steps, in order.
func TestRunStopAndStream(t *testing.T) {
	spec := testSpec()
	spec.Steps = 10
	stop := make(chan struct{})
	var streamed []int
	res, err := Run(&spec, Options{
		Stop:     stop,
		OnSample: func(s observe.Sample) { streamed = append(streamed, s.Step) },
		AfterStep: func(done int) {
			if done == 4 {
				close(stop)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Error("Stopped not set")
	}
	if len(res.Samples) != 4 {
		t.Fatalf("ran %d steps, want 4", len(res.Samples))
	}
	if len(streamed) != 4 || streamed[3] != 4 {
		t.Errorf("streamed steps %v, want [1 2 3 4]", streamed)
	}
	if res.Final.Step != 4 {
		t.Errorf("final state step %d, want 4", res.Final.Step)
	}
}

// TestWorkingSetBytesTracksGrid: the admission estimate's plane-wave count
// (the cutoff-sphere volume) stays within 10% of the NG the grid actually
// builds, and the estimate scales with the cell count and the rank count.
func TestWorkingSetBytesTracksGrid(t *testing.T) {
	for _, ecut := range []float64{2, 3, 10} {
		s := Spec{Cells: [3]int{1, 1, 1}, Ecut: ecut}
		_, g, nb, err := s.System()
		if err != nil {
			t.Fatal(err)
		}
		ng := s.WorkingSetBytes() / float64(nb*16*workingSetFactor)
		if r := ng / float64(g.NG); math.Abs(r-1) > 0.1 {
			t.Errorf("ecut %g: estimated NG %.0f vs grid NG %d", ecut, ng, g.NG)
		}
	}
	one := Spec{Cells: [3]int{1, 1, 1}, Ecut: 3}
	big := Spec{Cells: [3]int{2, 1, 1}, Ecut: 3, Ranks: 2}
	if r := big.WorkingSetBytes() / one.WorkingSetBytes(); math.Abs(r-8) > 1e-9 {
		t.Errorf("2 cells on 2 ranks estimate %.6gx one cell, want 8x (NG, bands and ranks each double)", r)
	}
	if b := (&Spec{Cells: [3]int{0, 1, 1}, Ecut: 3}).WorkingSetBytes(); b != 0 {
		t.Errorf("invalid cells estimate %g, want 0", b)
	}
}
