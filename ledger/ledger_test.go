package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"ptdft/internal/trace"
)

func TestMedianMatchesPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // even the median has only 9 beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		q, ok := tailPercentile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rankOf(tc.n, q) < minBeyond {
			t.Errorf("n=%d p%g leaves %d samples beyond", tc.n, q, tc.n-rankOf(tc.n, q))
		}
	}
	// 1..100: nearest rank p90 is 90, with 91..100 beyond it.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if tl := tailOf(xs); tl.Q != 90 || tl.Value != 90 || tl.N != 100 {
		t.Errorf("tailOf(1..100) = %+v, want p90 = 90 of 100", tl)
	}
	if tl := tailOf([]float64{5, 1, 9}); tl.Q != 100 || tl.Value != 9 {
		t.Errorf("tailOf of 3 samples = %+v, want the maximum", tl)
	}
}

func span(name, cat string, start, dur int64) trace.SpanJSON {
	return trace.SpanJSON{Name: name, Cat: cat, StartNs: start, DurNs: dur}
}

func TestFoldNestedTrack(t *testing.T) {
	// step [0,100) holds scf_iter [10,60) and [60,90); the first holds an
	// exchange [20,50) with a wait [30,40) inside; observe [100,120) follows
	// after a gap; one instantaneous event.
	f := foldTrack(trace.TrackJSON{ID: 0, Label: "rank 0", Spans: []trace.SpanJSON{
		span("step", "step", 0, 100),
		span("scf_iter", "solver", 10, 50),
		span("exchange", "fock", 20, 30),
		span("MPI_Bcast wait", "wait", 30, 10),
		span("scf_iter", "solver", 60, 30),
		span("observe", "observe", 100, 20),
		span("MPI_Fetch_and_op", "xfer", 110, 0),
	}})
	want := map[string]int64{"step": 20, "scf_iter": 50, "exchange": 20, "MPI_Bcast wait": 10, "observe": 20}
	if !reflect.DeepEqual(f.ByName, want) {
		t.Errorf("self by name = %v, want %v", f.ByName, want)
	}
	if f.Busy != 120 || f.Self != 120 || f.SelfVsBusy() != 1 {
		t.Errorf("busy %d self %d, want 120 and 120", f.Busy, f.Self)
	}
	if f.Calls["scf_iter"] != 2 || f.Calls["MPI_Fetch_and_op"] != 1 {
		t.Errorf("calls = %v", f.Calls)
	}
	if f.ByCat["wait"] != 10 || f.ByCat["solver"] != 50 {
		t.Errorf("self by category = %v", f.ByCat)
	}
}

func TestFoldIdenticalIntervalsNestInBeginOrder(t *testing.T) {
	f := foldTrack(trace.TrackJSON{Spans: []trace.SpanJSON{
		span("outer", "", 0, 10),
		span("inner", "", 0, 10),
	}})
	if f.ByName["outer"] != 0 || f.ByName["inner"] != 10 || f.Self != f.Busy {
		t.Errorf("self = %v, busy %d", f.ByName, f.Busy)
	}
}

func TestFoldOverlapWithoutNestingIsReported(t *testing.T) {
	// Two pipelined fetches on one track overlap by 5 ns without nesting:
	// each keeps its full duration, so the self sum exceeds the busy time
	// by exactly the overlap.
	f := foldTrack(trace.TrackJSON{Spans: []trace.SpanJSON{
		span("exchange", "solver", 0, 30),
		span("fetch", "xfer", 5, 10),
		span("fetch", "xfer", 10, 10),
	}})
	if f.Busy != 30 || f.Self != 35 {
		t.Fatalf("busy %d self %d, want 30 and 35", f.Busy, f.Self)
	}
	if f.ByName["exchange"] != 15 || f.ByName["fetch"] != 20 {
		t.Errorf("self = %v", f.ByName)
	}
	if r := f.SelfVsBusy(); math.Abs(r-35.0/30) > 1e-12 {
		t.Errorf("self/busy = %g", r)
	}
}

func TestJobMixIsDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) []jobPlan {
		m := newJobMix(seed)
		out := make([]jobPlan, 400)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed generated two different job mixes")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same job mix")
	}
	seen := make(map[string]bool)
	for _, p := range newJobMix(7).warmup() {
		key, err := p.Spec.SCFKey()
		if err != nil {
			t.Fatal(err)
		}
		seen[key] = true
	}
	for b := 0; b < len(a); b += blockLen {
		var md, preempt, fresh int
		for _, p := range a[b : b+blockLen] {
			if err := p.Spec.Validate(); err != nil {
				t.Fatalf("generated spec invalid: %v", err)
			}
			key, err := p.Spec.SCFKey()
			if err != nil {
				t.Fatal(err)
			}
			if !seen[key] {
				seen[key] = true
				fresh++
			}
			if p.Spec.MD {
				md++
			}
			if p.Preempt > 0 {
				preempt++
				if p.Preempt >= p.Spec.TotalSteps() {
					t.Fatalf("preempt after sample %d of a %d-step job", p.Preempt, p.Spec.TotalSteps())
				}
			}
		}
		if md != 1 || preempt != 1 || fresh != 1 {
			t.Errorf("block %d: %d MD, %d preempted, %d fresh keys; want 1 each", b/blockLen, md, preempt, fresh)
		}
	}
	// Probes drawn after the mix never reuse a key the mix handed out.
	m := newJobMix(7)
	for range a {
		m.next()
	}
	for i := range missProbes {
		p := m.probe(i%2 == 1)
		if err := p.Spec.Validate(); err != nil {
			t.Fatalf("probe spec invalid: %v", err)
		}
		key, err := p.Spec.SCFKey()
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			t.Errorf("probe %d reuses an SCF key", i)
		}
		seen[key] = true
	}
}

func TestPeriodicSaves(t *testing.T) {
	for _, tc := range []struct {
		total, every int
		preempted    []int
		want         int
	}{
		{8, 2, nil, 3},          // after steps 2, 4, 6; not after the last
		{8, 2, []int{3}, 1 + 2}, // attempt 1 saves at 2; attempt 2 runs 5 steps, saves at 2 and 4
		{8, 2, []int{4}, 2 + 1}, // attempt 1 saves at 2 and 4; attempt 2 runs 4, saves at 2
		{8, 2, []int{8}, 3},     // preempted after the last step: nothing left to run
	} {
		if got := periodicSaves(tc.total, tc.every, tc.preempted); got != tc.want {
			t.Errorf("periodicSaves(%d, %d, %v) = %d, want %d", tc.total, tc.every, tc.preempted, got, tc.want)
		}
	}
}

func TestReadEvents(t *testing.T) {
	stream := "event: sample\ndata: {\"step\":1}\n\nevent: sample\ndata: {\"step\":2}\n\nevent: state\ndata: {\"state\":\"done\"}\n\n"
	var got []string
	err := readEvents(strings.NewReader(stream), func(event string, data []byte) error {
		got = append(got, event+" "+string(data))
		return nil
	})
	want := []string{`sample {"step":1}`, `sample {"step":2}`, `state {"state":"done"}`}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("events %q (err %v), want %q", got, err, want)
	}
}

// TestCatalogMatchesManifest keeps the metric catalogs and the benchmark
// manifest at the repository root in step.
func TestCatalogMatchesManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalog:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalog")
	}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
}
