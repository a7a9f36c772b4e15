package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

// loadFlags is the -load client mode: a stdlib-only load generator
// that drives a live accordiond and writes BENCH_service.json. It is
// the tool behind scripts/bench_service.sh and the CI service-smoke
// job, so it also *gates*: any response status outside {200, 202, 429}
// fails the run, as do a missing 429 under deliberate overflow,
// non-identical bytes for identical requests, and (when -load-p99-max
// is set) a p99 above the bound.
type loadFlags struct {
	url          string
	requests     int
	concurrency  int
	distinct     int
	experiment   string
	chips        int
	overflow     int
	overflowExp  string
	overflowChip int
	p99Max       time.Duration
	timeout      time.Duration
	out          string
	revision     string
	dirty        bool
	gomaxprocs   int
}

func newLoadFlags(fs *flag.FlagSet) *loadFlags {
	l := &loadFlags{}
	fs.StringVar(&l.url, "load", "", "run as a load generator against this base URL (e.g. http://localhost:8344) instead of serving")
	fs.IntVar(&l.requests, "load-requests", 64, "total requests in the sweep phase")
	fs.IntVar(&l.concurrency, "load-concurrency", 8, "concurrent client goroutines")
	fs.IntVar(&l.distinct, "load-distinct", 4, "distinct request seeds rotated through the sweep (the rest coalesce)")
	fs.StringVar(&l.experiment, "load-experiment", "fig1a", "experiment id each request runs")
	fs.IntVar(&l.chips, "load-chips", 4, "population size each request uses")
	fs.IntVar(&l.overflow, "load-overflow", 0, "overflow-phase burst size (0 = skip; must exceed queue+workers to prove 429s)")
	fs.StringVar(&l.overflowExp, "load-overflow-experiment", "population", "experiment id the overflow burst runs (slow enough to hold the queue full)")
	fs.IntVar(&l.overflowChip, "load-overflow-chips", 8, "population size each overflow request uses")
	fs.DurationVar(&l.p99Max, "load-p99-max", 0, "fail if sweep p99 latency exceeds this (0 = record only)")
	fs.DurationVar(&l.timeout, "load-timeout", 2*time.Minute, "per-request client timeout")
	fs.StringVar(&l.out, "load-out", "BENCH_service.json", "benchmark JSON output path")
	fs.StringVar(&l.revision, "load-revision", "", "VCS revision stamped into the bench JSON (from the harness)")
	fs.BoolVar(&l.dirty, "load-dirty", false, "VCS dirty flag stamped into the bench JSON")
	fs.IntVar(&l.gomaxprocs, "load-gomaxprocs", 0, "server GOMAXPROCS stamped into the bench JSON")
	return l
}

// body builds the request payload for one sweep slot; slots rotate
// through `distinct` seeds so the server sees a mix of fresh jobs and
// coalescable repeats.
func (l *loadFlags) body(seed int64) []byte {
	return buildBody(l.experiment, l.chips, seed)
}

func buildBody(experiment string, chips int, seed int64) []byte {
	doc := map[string]any{
		"kind":        "experiments",
		"experiments": []string{experiment},
		"chips":       chips,
		"seed":        seed,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return data
}

// benchDoc is the BENCH_service.json schema. The VCS/GOMAXPROCS
// identity keys at the top level are what `accordionhist append`
// lifts into a run-history record, so regression baselines only ever
// compare like with like.
type benchDoc struct {
	URL         string         `json:"url"`
	Experiment  string         `json:"experiment"`
	Chips       int            `json:"chips"`
	Requests    int            `json:"requests"`
	Concurrency int            `json:"concurrency"`
	Distinct    int            `json:"distinct"`
	VCSRevision string         `json:"vcs_revision,omitempty"`
	VCSDirty    bool           `json:"vcs_dirty,omitempty"`
	GOMAXPROCS  int            `json:"gomaxprocs,omitempty"`
	Sweep       sweepDoc       `json:"sweep"`
	Overflow    *overflowDoc   `json:"overflow,omitempty"`
	Determinism determinismDoc `json:"determinism"`
	// CachesCold is the cumulative cache picture after the sweep: a
	// fresh daemon shows the cold misses the first requests paid.
	// CachesWarm isolates a second visit to an already-measured model
	// (same benchmark+seed, different population size), where the memo
	// layers must actually hit — the block that proves the caches earn
	// their keep, which the old single `caches` blob (all-zero hit
	// rates on a cold server) never could.
	CachesCold map[string]rateDoc `json:"caches_cold"`
	CachesWarm map[string]rateDoc `json:"caches_warm"`
	Service    serviceDoc         `json:"service"`
	Ops        opsDoc             `json:"ops"`
}

// opsDoc records the observability-surface checks: the dashboard and
// SSE stream answered, the access log carried the sweep, and the
// rolling/SLO readouts the server computed for the same traffic the
// client measured.
type opsDoc struct {
	StatuszOK         bool    `json:"statusz_ok"`
	WatchEventKind    string  `json:"watch_event_kind"`
	AccessLogLines    int     `json:"access_log_lines"`
	RollingCount1m    int64   `json:"rolling_count_1m"`
	RollingP99Ms      float64 `json:"rolling_p99_ms_1m"`
	RollingRateRPS    float64 `json:"rolling_rate_rps_1m"`
	RollingErrorRate  float64 `json:"rolling_error_rate_1m"`
	SLOP99BurnMilli   int64   `json:"slo_p99_burn_milli"`
	SLOErrorBurnMilli int64   `json:"slo_error_burn_milli"`
}

type sweepDoc struct {
	WallMs        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	OK            int     `json:"ok_200"`
	Rejected      int     `json:"rejected_429"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

type overflowDoc struct {
	Attempts int `json:"attempts"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected_429"`
}

type determinismDoc struct {
	Identical bool `json:"identical"`
	Bytes     int  `json:"bytes"`
}

type rateDoc struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

type serviceDoc struct {
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	Coalesced int64 `json:"coalesced"`
}

func (l *loadFlags) run() error {
	if l.requests < 1 || l.concurrency < 1 || l.distinct < 1 {
		return fmt.Errorf("-load-requests, -load-concurrency and -load-distinct must be positive")
	}
	client := &http.Client{Timeout: l.timeout}
	if err := l.waitHealthy(client); err != nil {
		return err
	}

	doc := benchDoc{
		URL:         l.url,
		Experiment:  l.experiment,
		Chips:       l.chips,
		Requests:    l.requests,
		Concurrency: l.concurrency,
		Distinct:    l.distinct,
		VCSRevision: l.revision,
		VCSDirty:    l.dirty,
		GOMAXPROCS:  l.gomaxprocs,
	}

	// Sweep: l.requests POSTs to /run from l.concurrency goroutines,
	// rotating through l.distinct seeds. With distinct <= queue depth
	// every request must come back 200 (coalescing keeps the queue
	// footprint at `distinct` jobs); latency is recorded per request.
	latencies := make([]time.Duration, l.requests)
	statuses := make([]int, l.requests)
	errs := make([]error, l.requests)
	var wg sync.WaitGroup
	next := make(chan int)
	sweepStart := time.Now()
	for w := 0; w < l.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body := l.body(1 + int64(i%l.distinct))
				t0 := time.Now()
				status, _, err := l.post(client, "/run", body)
				latencies[i] = time.Since(t0)
				statuses[i] = status
				errs[i] = err
			}
		}()
	}
	for i := 0; i < l.requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(sweepStart)

	var okLat []time.Duration
	for i := range statuses {
		switch {
		case errs[i] != nil:
			return fmt.Errorf("sweep request %d: %w", i, errs[i])
		case statuses[i] == http.StatusOK:
			doc.Sweep.OK++
			okLat = append(okLat, latencies[i])
		case statuses[i] == http.StatusTooManyRequests:
			doc.Sweep.Rejected++
		default:
			return fmt.Errorf("sweep request %d: unexpected status %d (only 200 and 429 are acceptable)", i, statuses[i])
		}
	}
	if doc.Sweep.OK == 0 {
		return fmt.Errorf("sweep: no request succeeded (%d rejected)", doc.Sweep.Rejected)
	}
	doc.Sweep.WallMs = float64(wall.Microseconds()) / 1e3
	doc.Sweep.ThroughputRPS = float64(l.requests) / wall.Seconds()
	doc.Sweep.P50Ms = ms(percentile(okLat, 0.50))
	doc.Sweep.P95Ms = ms(percentile(okLat, 0.95))
	doc.Sweep.P99Ms = ms(percentile(okLat, 0.99))
	if l.p99Max > 0 && percentile(okLat, 0.99) > l.p99Max {
		return fmt.Errorf("sweep p99 %.1fms exceeds the %.1fms bound", doc.Sweep.P99Ms, ms(l.p99Max))
	}

	// Determinism gate: the same body twice must yield byte-identical
	// responses (the second is typically served from the retained job,
	// but the contract holds either way).
	detBody := l.body(1)
	_, first, err := l.post(client, "/run", detBody)
	if err != nil {
		return fmt.Errorf("determinism request: %w", err)
	}
	_, second, err := l.post(client, "/run", detBody)
	if err != nil {
		return fmt.Errorf("determinism request: %w", err)
	}
	doc.Determinism.Identical = bytes.Equal(first, second)
	doc.Determinism.Bytes = len(first)
	if !doc.Determinism.Identical {
		return fmt.Errorf("identical requests returned different bodies (%d vs %d bytes)", len(first), len(second))
	}

	// Overflow: a concurrent burst of distinct, never-seen seeds
	// against the bounded queue. The burst runs a deliberately slow
	// request shape (Monte-Carlo population jobs, seconds each, vs the
	// sweep's millisecond solver runs) so the absorbed jobs hold the
	// workers and the queue full while the rest of the burst lands. The
	// burst exceeds queue+workers, so at least one 429 (with nothing
	// else unexpected) proves the backpressure path answers instead of
	// queueing without bound.
	if l.overflow > 0 {
		of := &overflowDoc{Attempts: l.overflow}
		results := make([]int, l.overflow)
		oerrs := make([]error, l.overflow)
		var owg sync.WaitGroup
		for i := 0; i < l.overflow; i++ {
			owg.Add(1)
			go func(i int) {
				defer owg.Done()
				body := buildBody(l.overflowExp, l.overflowChip, 1000+int64(i))
				status, _, err := l.post(client, "/jobs", body)
				results[i] = status
				oerrs[i] = err
			}(i)
		}
		owg.Wait()
		for i, status := range results {
			switch {
			case oerrs[i] != nil:
				return fmt.Errorf("overflow request %d: %w", i, oerrs[i])
			case status == http.StatusAccepted || status == http.StatusOK:
				of.Accepted++
			case status == http.StatusTooManyRequests:
				of.Rejected++
			default:
				return fmt.Errorf("overflow request %d: unexpected status %d", i, status)
			}
		}
		if of.Rejected == 0 {
			return fmt.Errorf("overflow burst of %d produced no 429: queue not exerting backpressure", l.overflow)
		}
		doc.Overflow = of
	}

	if err := l.scrape(client, &doc); err != nil {
		return err
	}
	if err := l.warmSweep(client, &doc); err != nil {
		return err
	}
	if err := l.checkOps(client, &doc); err != nil {
		return err
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(l.out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "accordiond: load: wrote %s\n", l.out)
	_, err = os.Stdout.Write(data)
	return err
}

// postPatient posts to /run until it gets a 200, backing off on 429 —
// the overflow burst right before the warm phase leaves the queue
// full of deliberately slow jobs, and a 429 there is the backpressure
// contract working, not a failure.
func (l *loadFlags) postPatient(client *http.Client, what string, body []byte) error {
	deadline := time.Now().Add(l.timeout)
	for {
		status, _, err := l.post(client, "/run", body)
		switch {
		case err != nil:
			return fmt.Errorf("%s request: %w", what, err)
		case status == http.StatusOK:
			return nil
		case status != http.StatusTooManyRequests:
			return fmt.Errorf("%s request: unexpected status %d", what, status)
		case time.Now().After(deadline):
			return fmt.Errorf("%s request: still 429 after %s (queue never drained)", what, l.timeout)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// post sends one JSON request and returns the status and body.
func (l *loadFlags) post(client *http.Client, path string, body []byte) (int, []byte, error) {
	resp, err := client.Post(l.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// waitHealthy polls /healthz until the daemon answers 200.
func (l *loadFlags) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(l.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server never became healthy: %w", err)
			}
			return fmt.Errorf("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// scrape reads /telemetryz and extracts the cache hit rates and the
// service counters into the bench document.
func (l *loadFlags) scrape(client *http.Client, doc *benchDoc) error {
	resp, err := client.Get(l.url + "/telemetryz")
	if err != nil {
		return fmt.Errorf("scraping /telemetryz: %w", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"gauges"`
		Windows []struct {
			Name     string `json:"name"`
			Horizons []struct {
				Label      string  `json:"label"`
				Count      int64   `json:"count"`
				RatePerSec float64 `json:"rate_per_sec"`
				ErrorRate  float64 `json:"error_rate"`
				P99        int64   `json:"p99"`
			} `json:"horizons"`
		} `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding /telemetryz: %w", err)
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "service.slo.p99_burn_milli":
			doc.Ops.SLOP99BurnMilli = g.Value
		case "service.slo.error_burn_milli":
			doc.Ops.SLOErrorBurnMilli = g.Value
		}
	}
	for _, w := range snap.Windows {
		if w.Name != "service.latency_ns" {
			continue
		}
		for _, h := range w.Horizons {
			if h.Label != "1m" {
				continue
			}
			doc.Ops.RollingCount1m = h.Count
			doc.Ops.RollingP99Ms = float64(h.P99) / 1e6
			doc.Ops.RollingRateRPS = h.RatePerSec
			doc.Ops.RollingErrorRate = h.ErrorRate
		}
	}
	if doc.Ops.RollingCount1m == 0 {
		return fmt.Errorf("/telemetryz: rolling service.latency_ns 1m window empty after %d requests", l.requests)
	}
	for _, c := range snap.Counters {
		switch c.Name {
		case "service.requests":
			doc.Service.Requests = c.Value
		case "service.rejected":
			doc.Service.Rejected = c.Value
		case "service.coalesced":
			doc.Service.Coalesced = c.Value
		}
	}
	cold, err := l.cacheCounters(client)
	if err != nil {
		return err
	}
	doc.CachesCold = rates(cold)
	return nil
}

// cachePair is one memo layer's cumulative hit/miss counters.
type cachePair struct{ hits, misses int64 }

// cacheCounters scrapes the cumulative cache.<Name>.{hits,misses}
// counters from /telemetryz.
func (l *loadFlags) cacheCounters(client *http.Client) (map[string]cachePair, error) {
	resp, err := client.Get(l.url + "/telemetryz")
	if err != nil {
		return nil, fmt.Errorf("scraping /telemetryz: %w", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters []telemetry.CounterSnapshot `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /telemetryz: %w", err)
	}
	out := map[string]cachePair{}
	telemetry.CacheCounts(snap.Counters, func(name string, hits, misses int64) {
		out[name] = cachePair{hits, misses}
	})
	return out, nil
}

// rates converts cumulative counters to the bench-JSON rate blocks,
// dropping untouched layers.
func rates(counters map[string]cachePair) map[string]rateDoc {
	out := map[string]rateDoc{}
	for name, p := range counters {
		if p.hits+p.misses == 0 {
			continue
		}
		out[name] = rateDoc{
			Hits:    p.hits,
			Misses:  p.misses,
			HitRate: float64(p.hits) / float64(p.hits+p.misses),
		}
	}
	return out
}

// delta subtracts two cumulative scrapes, isolating the cache traffic
// between them.
func delta(before, after map[string]cachePair) map[string]cachePair {
	out := map[string]cachePair{}
	for name, a := range after {
		b := before[name]
		out[name] = cachePair{hits: a.hits - b.hits, misses: a.misses - b.misses}
	}
	return out
}

// warmSweep is the warm-cache phase behind the caches_warm block. The
// sweep above ran against a cold daemon, so its cache picture is all
// misses — committing that as "the" cache stats once shipped a bench
// artifact claiming the memo layers never hit. Here the client runs
// one front-measuring request to populate the model caches, then an
// almost-identical request — same benchmark set and seed, population
// one chip larger so nothing coalesces — and scrapes the counter
// delta: the second request must hit the measured-fronts memo
// (MeasuredFronts is keyed by benchmark+seed, not population), which
// the run gates on.
func (l *loadFlags) warmSweep(client *http.Client, doc *benchDoc) error {
	const warmExperiment = "fig2"
	const warmSeed = 9009
	if err := l.postPatient(client, "warm populate", buildBody(warmExperiment, l.chips, warmSeed)); err != nil {
		return err
	}
	before, err := l.cacheCounters(client)
	if err != nil {
		return fmt.Errorf("warm phase: %w", err)
	}
	if err := l.postPatient(client, "warm revisit", buildBody(warmExperiment, l.chips+1, warmSeed)); err != nil {
		return err
	}
	after, err := l.cacheCounters(client)
	if err != nil {
		return fmt.Errorf("warm phase: %w", err)
	}
	doc.CachesWarm = rates(delta(before, after))
	if doc.CachesWarm["experiments.MeasuredFronts"].Hits < 1 {
		return fmt.Errorf("warm revisit produced no experiments.MeasuredFronts hit: %+v", doc.CachesWarm)
	}
	return nil
}

// checkOps gates the observability surface after the sweep: /statusz
// must serve well-formed HTML, /watch must deliver at least one SSE
// event within a timeout, and the /eventsz access log must carry the
// sweep's service.request lines. The server's own rolling 1m latency
// readout and SLO burn gauges land in the bench document beside the
// client-measured latencies.
func (l *loadFlags) checkOps(client *http.Client, doc *benchDoc) error {
	// Dashboard: well-formed HTML under the right content type.
	resp, err := client.Get(l.url + "/statusz")
	if err != nil {
		return fmt.Errorf("GET /statusz: %w", err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reading /statusz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/statusz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		return fmt.Errorf("/statusz: Content-Type %q, want text/html", ct)
	}
	html := string(page)
	for _, want := range []string{"<!DOCTYPE html>", "</html>", "accordiond", "rolling latency"} {
		if !strings.Contains(html, want) {
			return fmt.Errorf("/statusz: page misses %q", want)
		}
	}
	doc.Ops.StatuszOK = true

	// Live stream: one SSE data frame within the timeout. The replay of
	// the ring tail guarantees a frame immediately after the sweep.
	kind, err := l.readOneSSE()
	if err != nil {
		return fmt.Errorf("GET /watch: %w", err)
	}
	doc.Ops.WatchEventKind = kind

	// Access log: the NDJSON ring must parse and carry the sweep.
	resp, err = client.Get(l.url + "/eventsz")
	if err != nil {
		return fmt.Errorf("GET /eventsz: %w", err)
	}
	evs, err := events.ParseNDJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("parsing /eventsz NDJSON: %w", err)
	}
	for _, e := range evs {
		if e.Kind == "service.request" {
			doc.Ops.AccessLogLines++
		}
	}
	if doc.Ops.AccessLogLines == 0 {
		return fmt.Errorf("/eventsz: no service.request access-log events after %d requests", l.requests)
	}
	return nil
}

// readOneSSE connects to /watch and returns the kind of the first
// event frame, failing after a bounded wait.
func (l *loadFlags) readOneSSE() (string, error) {
	sseClient := &http.Client{Timeout: 10 * time.Second}
	resp, err := sseClient.Get(l.url + "/watch")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return "", fmt.Errorf("Content-Type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		evs, err := events.ParseNDJSON(strings.NewReader(line))
		if err != nil || len(evs) != 1 {
			return "", fmt.Errorf("bad SSE frame %q: %v", line, err)
		}
		return evs[0].Kind, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("stream ended without an event frame")
}

// percentile returns the q-quantile of the recorded latencies
// (nearest-rank on a sorted copy).
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
