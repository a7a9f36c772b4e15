// Command perfbench is the repository's benchmark. It drives one named
// workload in-process against the public functions of repro/internal,
// checks that the simulated outputs are byte-identical to the committed
// digests, and prints its metrics as the last line of standard output:
//
//	{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":9.8,"unit":"s"},...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// serial re-enactment of the workload times every call into a layer
// and the metrics are the per-layer set. All times are host time: how
// long the simulator takes, never simulated time. WORKLOADS.md says
// why each workload exists and which metric each layer should move.
//
// Usage:
//
//	go run . -workload paper-cold -seed 1 -seconds 20 -trace 0 [-out result.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(c *config, traced bool) (*result, error){
	"paper-cold":    paperCold,
	"population-mc": populationMC,
	"service-warm":  serviceWarm,
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of a workload found.
type result struct {
	// attempted counts timed operations; failed counts those that
	// erred, were refused, or produced output differing from its
	// committed digest or from an earlier copy of itself.
	attempted, failed int
	metrics           map[string]metric
	// detail holds figures beyond the printed set (per-runner and
	// per-kernel breakdowns, sample counts, digests) for the full
	// result document.
	detail map[string]any
	// flags lists conditions a reader must know about the run.
	flags []string
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *result) flag(format string, args ...any) {
	r.flags = append(r.flags, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// stamp identifies the build and environment a result was measured on.
// Its first three fields are the ones accordionhist lifts into a
// history record.
type stamp struct {
	VCSRevision string `json:"vcs_revision"`
	VCSDirty    bool   `json:"vcs_dirty"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	GoVersion   string `json:"go_version"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       int    `json:"trace"`
}

func environment(workload string, seed int64, trace int) stamp {
	st := stamp{
		VCSRevision: "unknown",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		Workload:    workload,
		Seed:        seed,
		Trace:       trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.VCSRevision = s.Value
			case "vcs.modified":
				st.VCSDirty = s.Value == "true"
			}
		}
	}
	return st
}

// initTime is when the package was initialized: as near to process
// start as the benchmark can see, and the first set-up's origin.
var initTime = time.Now()

// startupEnv marks a child launched only to time process start-up: it
// exits where its workload's first timed operation would begin.
const startupEnv = "PERFBENCH_STARTUP"

// startupTimes launches this binary n times with the same arguments,
// each exiting where its first timed operation would begin, and
// returns how long each took from launch to exit.
func startupTimes(n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make([]float64, n)
	for i := range times {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), startupEnv+"=1")
		cmd.Stderr = os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("timing start-up: %w", err)
		}
		times[i] = time.Since(t).Seconds()
	}
	return times, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper-cold, population-mc or service-warm")
		seed     = flag.Int64("seed", 1, "workload seed; 1 reproduces the CLI's default configuration")
		seconds  = flag.Int("seconds", 20, "how long the timed phase runs")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced serial run")
		out      = flag.String("out", "", "also write the full result document (history-store compatible JSON) here")
	)
	flag.Parse()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	switch {
	case !ok:
		fail("unknown workload %q (want paper-cold, population-mc or service-warm)", *workload)
	case *seconds < 1:
		fail("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		fail("-trace must be 0 or 1, got %d", *trace)
	}
	st := environment(*workload, *seed, *trace)
	// Pool width, server workers and clients all follow GOMAXPROCS; a
	// run with fewer procs than CPUs measures a narrower machine than
	// the one it reports.
	if st.GOMAXPROCS != st.NProc {
		fail("GOMAXPROCS=%d differs from the %d CPUs available; unset GOMAXPROCS", st.GOMAXPROCS, st.NProc)
	}
	c := defaultConfig(*workload, *seed, time.Duration(*seconds)*time.Second)
	c.start = initTime
	if os.Getenv(startupEnv) == "1" {
		return
	}
	res, err := run(c, *trace == 1)
	if err != nil {
		fail("%s: %v", *workload, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %d: nproc %d, GOMAXPROCS %d, %s, revision %s (dirty %v), %d operations\n",
		st.Workload, st.Seed, st.Trace, st.NProc, st.GOMAXPROCS, st.GoVersion, st.VCSRevision, st.VCSDirty, res.attempted)
	for _, f := range res.flags {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", *workload, f)
	}
	if *out != "" {
		if err := writeDocument(*out, st, res); err != nil {
			fail("%v", err)
		}
	}
	if err := printResult(os.Stdout, res); err != nil {
		fail("%v", err)
	}
}

// printResult writes the one-line summary the benchmark's caller
// parses.
func printResult(w io.Writer, res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeDocument writes the full result: the environment stamp at the
// top level and every figure as a numeric leaf, the shape
// `accordionhist append -bench` ingests.
func writeDocument(path string, st stamp, res *result) error {
	doc := map[string]any{}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	values := map[string]float64{}
	for name, m := range res.metrics {
		values[name] = m.Value
	}
	errorRatio := 0.0
	if res.attempted > 0 {
		errorRatio = float64(res.failed) / float64(res.attempted)
	}
	doc["correct"] = res.correct()
	doc["attempted"] = res.attempted
	doc["failed"] = res.failed
	doc["error_ratio"] = errorRatio
	doc["metrics"] = values
	doc["detail"] = res.detail
	doc["flags"] = res.flags
	data, err = json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding result document: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing result document: %w", err)
	}
	return nil
}
