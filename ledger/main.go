// Command ledger is the repository's end-to-end benchmark. It runs one
// workload in this process, checks the physics of every operation, and
// prints a human-readable ledger followed by one JSON result line:
//
//	go build -o ledger . && ./ledger --workload hybrid-serial --seed 1 --seconds 30 --trace 0
//
// (run.sh builds from the checkout and runs it). --trace 0 measures the
// end-to-end metrics with the flight recorder off; --trace 1 adds traced
// runs and reports the per-layer metrics. README.md explains each
// workload and which per-layer metric should move which end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// report is what one workload run measured.
type report struct {
	attempted, failed int
	failures          []string           // first few failure messages
	values            map[string]float64 // metric name -> value
	notes             map[string]string  // metric name -> sample count, base, caveats
	remarks           []string           // free-form lines for the ledger
}

func newReport() *report {
	return &report{values: make(map[string]float64), notes: make(map[string]string)}
}

func (r *report) set(name string, v float64, note string, args ...any) {
	r.values[name] = v
	r.notes[name] = fmt.Sprintf(note, args...)
}

// op counts one attempted operation and, when errs is non-empty, its
// failure.
func (r *report) op(what string, errs []string) {
	r.attempted++
	if len(errs) == 0 {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, what+": "+strings.Join(errs, "; "))
	}
}

func (r *report) remark(format string, args ...any) {
	r.remarks = append(r.remarks, fmt.Sprintf(format, args...))
}

// run is one invocation's settings.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	deadline time.Time // end of the measurement window
}

// remaining reports the time left in the measurement window.
func (c *run) remaining() time.Duration { return time.Until(c.deadline) }

type workloadFunc func(c *run) (*report, error)

var workloads = map[string]workloadFunc{
	"hybrid-serial":    runSim,
	"hybrid-2rank-ace": runSim,
	"jobs-mixed":       runJobs,
}

func main() {
	workload := flag.String("workload", "", "workload name: hybrid-serial, hybrid-2rank-ace or jobs-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Int("seconds", 30, "measurement window (s)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "ledger: want --workload {%s} --seconds >= 1 --trace {0,1}\n", strings.Join(names, ","))
		os.Exit(2)
	}
	c := &run{workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *traced == 1}
	fmt.Printf("ledger: workload=%s seed=%d seconds=%d trace=%d\n", c.workload, c.seed, *seconds, *traced)
	fmt.Println(hostLine())
	rep, err := fn(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", c.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
	}
	out, err := emit(rep, defs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the ledger rows for defs and returns the JSON result line.
// Every metric of defs must have been measured: a missing one is a bug in
// the workload, not a zero.
func emit(rep *report, defs []metricDef) (string, error) {
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
		fmt.Printf("  %-26s %14.6g %-6s %s\n", d.Name, v, d.Unit, rep.notes[d.Name])
	}
	for _, line := range rep.remarks {
		fmt.Println("  note:", line)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Println("  FAILED:", f)
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// restarts the kernel's peak resident-set count, so the next peakRSSMB
// covers only what runs after it, as in a fresh process.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
