package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// config sizes one run. defaultConfig gives the sizes BENCHMARK.json
// runs and the committed digests were taken at; the self-tests shrink
// them and use a seed with no committed digest.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // length of the timed phase
	start    time.Time     // process start, the first set-up's origin
	// setups is how many times population-mc and service-warm set up
	// from empty caches; setup_s is the median.
	setups int
	// kernels names the kernels the traced re-enactments fill; nil
	// means every kernel experiments.AllKernels returns. The first
	// (canneal by default) also serves the solver probes.
	kernels []string

	// paper-cold: the experiment ids regenerated per repetition.
	ids []string

	// population-mc: chips per population and the repetitions always
	// run, whose outputs the committed digest covers.
	chips   int
	minReps int

	// service-warm: the set-up request's experiments, the request mix,
	// the requests the measured phase sends, the leading requests whose
	// bodies make the committed digest, and the traced run's requests.
	warmup         []string
	mix            []share
	requests       int
	digestRequests int
	traceRequests  int
}

// requestsPerSecond sizes service-warm's measured phase: it sends this
// many requests per second of budget, whatever the service's speed, so
// every commit sends the same requests and fills the retained-job and
// memo caches alike. It is below the ~260 requests/s the service
// answered on a 2-vCPU host when the benchmark was defined, so a
// 20 s budget sends 4000 requests in about 15 s.
const requestsPerSecond = 200

// serviceTimeout is how many budgets service-warm's measured phase may
// take before its clients stop; every request not sent by then counts
// as failed.
const serviceTimeout = 3

func defaultConfig(workload string, seed int64, budget time.Duration) *config {
	c := &config{
		workload:       workload,
		seed:           seed,
		budget:         budget,
		start:          time.Now(),
		setups:         3,
		ids:            experiments.IDs(),
		chips:          1000,
		minReps:        3,
		warmup:         warmupExperiments,
		mix:            defaultMix,
		requests:       max(requestsPerSecond*int(budget/time.Second), 1000),
		digestRequests: 1000,
		traceRequests:  1500,
	}
	switch workload {
	case "population-mc":
		c.kernels = []string{"canneal"}
	case "service-warm":
		c.kernels = tableThree
	}
	return c
}

// expConfig is the experiment configuration a workload seed selects:
// the CLI's defaults with the master seed replaced, so seed 1 is
// exactly `accordion all`.
func expConfig(seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// nproc is the width of everything that runs in parallel: the pool,
// the server's workers and the clients.
func nproc() int { return runtime.GOMAXPROCS(0) }

//go:embed digests.json
var digestsJSON []byte

// committed maps workload → seed → the SHA-256 of the workload's
// outputs at its default sizes.
var committed = func() map[string]map[string]string {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return m
}()

// checkDigest compares a run's output digest with the one committed
// under key ("<seed>", or "<seed>/<repetition>" for population-mc).
// With none committed it flags the digest, so a run of another commit
// can be compared by hand.
func checkDigest(c *config, res *result, key, digest string) bool {
	res.detail["digest."+key] = digest
	want, ok := committed[c.workload][key]
	if !ok {
		res.flag("no committed digest for %s; outputs hash to %s", key, digest)
		return true
	}
	if digest != want {
		res.flag("output digest %s for %s differs from the committed %s", digest, key, want)
		return false
	}
	return true
}

func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
