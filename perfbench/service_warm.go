package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/mathx"
	"repro/internal/service"
)

// share is one request class of the service-warm mix, drawn with
// probability weight/Σweights. An empty experiment is a repeat: the
// same request as a recent fresh one, which the server answers from
// the retained job.
type share struct {
	experiment string
	weight     uint64
}

// defaultMix keeps both classes' boundaries away from the median:
// repeats (µs) fill the lowest 30%, fig5b (~1 ms) the next 10%, and
// fig5a (~4 ms) the 40%-70% band the median falls in; fig7 (~13 ms)
// and headline (~34 ms) make the tail. Fresh requests draw a new chip
// and re-run the solver on warm quality fronts.
var defaultMix = []share{
	{"", 30},
	{"fig5b", 10},
	{"fig5a", 30},
	{"fig7", 20},
	{"headline", 10},
}

// repeatWindow bounds how far back a repeat reaches. The server
// retains the 64 most recently finished jobs, so a repeat's target is
// still retained when it arrives.
const repeatWindow = 32

// warmupExperiments is the set-up request: it fills the quality fronts
// and representative chip every class of the mix reads.
var warmupExperiments = []string{"fig5a", "fig5b", "fig7", "headline"}

// tableThree names the kernels the mix's experiments profile.
var tableThree = []string{"canneal", "ferret", "bodytrack", "x264", "hotspot", "srad"}

// request returns request i's body and the index of the fresh request
// whose job it asks for (i itself unless it is a repeat). The sequence
// depends only on the seed, never on timing.
func (c *config) request(i int) ([]byte, int) {
	cls, h := c.class(i)
	if cls.experiment != "" {
		return c.body(cls.experiment, i), i
	}
	for d := 1 + int(h>>32)%repeatWindow; ; d = d%repeatWindow + 1 {
		if fresh, _ := c.class(i - d); fresh.experiment != "" {
			return c.body(fresh.experiment, i-d), i - d
		}
	}
}

// class draws request i's class from the mix. The first repeatWindow
// requests have nothing to repeat, so they draw only fresh classes.
func (c *config) class(i int) (share, uint64) {
	h := uint64(mathx.SplitSeed(c.seed, int64(i)))
	repeats := i >= repeatWindow
	var total uint64
	for _, s := range c.mix {
		if repeats || s.experiment != "" {
			total += s.weight
		}
	}
	r := h % total
	for _, s := range c.mix {
		if !repeats && s.experiment == "" {
			continue
		}
		if r < s.weight {
			return s, h
		}
		r -= s.weight
	}
	panic("perfbench: empty request mix")
}

// body is fresh request i's body: one experiment on a chip of its own.
func (c *config) body(experiment string, i int) []byte {
	chipSeed := mathx.SplitSeed(^c.seed, int64(i))
	if chipSeed == 0 {
		chipSeed = 1 // 0 would select the default chip
	}
	body, err := json.Marshal(service.Request{Experiments: []string{experiment}, Seed: c.seed, ChipSeed: chipSeed})
	if err != nil {
		panic(err) // a Request always encodes
	}
	return body
}

// server is the in-process service on a loopback listener.
type server struct {
	svc     *service.Server
	http    *http.Server
	url     string
	cancel  context.CancelFunc
	workers sync.WaitGroup
	served  chan error
	client  *http.Client
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		svc:    service.New(service.Config{Workers: workers}),
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: workers},
			Timeout:   time.Minute,
		},
	}
	s.http = &http.Server{Handler: s.svc.Mux()}
	for i := 0; i < s.svc.Workers(); i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.svc.Worker(ctx)
		}()
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the service and returns once its workers and listener
// have exited.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.client.CloseIdleConnections()
	errHTTP := s.http.Shutdown(ctx)
	errSvc := s.svc.Shutdown(ctx)
	s.cancel()
	s.workers.Wait()
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(errHTTP, errSvc)
}

// post sends one /run request and returns the status and body.
func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// status fetches a job's public status document.
func (s *server) status(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := s.client.Get(s.url + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status of job %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// warmUp starts a server and sends the set-up request.
func warmUp(c *config, workers int) (*server, error) {
	s, err := startServer(workers)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.Request{Experiments: c.warmup, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	code, data, err := s.post(body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up request: HTTP %d: %s", code, data)
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// outcome is one request's client-side record.
type outcome struct {
	i       int
	latency time.Duration
	code    int
	sum     [sha256.Size]byte
	err     error
}

// serviceWarm drives the in-process service in a closed loop: nproc
// clients, each waiting for its reply before sending the next request,
// against nproc server workers, after a warm-up request has filled the
// quality fronts. Fresh requests draw a chip and solve; repeats are
// answered from retained jobs. The measured phase sends c.requests
// requests; its time budget is only a timeout.
func serviceWarm(c *config, traced bool) (*result, error) {
	res := newResult()
	if traced {
		return res, traceService(c, res)
	}
	var s *server
	setups, err := setUp(c, func() error {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		var err error
		s, err = warmUp(c, nproc())
		return err
	})
	if err != nil {
		return nil, err
	}

	var next atomic.Int64
	outs := make([][]outcome, nproc())
	var wg sync.WaitGroup
	cpu0, begin := cpuSeconds(), time.Now()
	for k := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(begin) < serviceTimeout*c.budget {
				i := int(next.Add(1) - 1)
				if i >= c.requests {
					return
				}
				body, _ := c.request(i)
				t := time.Now()
				code, data, err := s.post(body)
				outs[k] = append(outs[k], outcome{i: i, latency: time.Since(t), code: code, sum: sha256.Sum256(data), err: err})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	cpu := cpuSeconds() - cpu0
	if err := s.stop(); err != nil {
		return nil, err
	}

	sent := min(int(next.Load()), c.requests)
	all := make([]outcome, sent)
	for _, o := range outs {
		for _, x := range o {
			all[x.i] = x
		}
	}
	if unsent := c.requests - sent; unsent > 0 {
		res.attempted += unsent
		res.failed += unsent
		res.flag("%d of %d requests not sent within the %v timeout", unsent, c.requests, serviceTimeout*c.budget)
	}
	lat, ok := checkResponses(c, res, all)
	res.set("wall_s", median(lat), "s")
	res.set("cpu_s", cpu/float64(len(all)), "s")
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("throughput_per_s", float64(ok)/elapsed.Seconds(), "1/s")
	res.detail["requests"] = len(all)
	res.detail["setup_s"] = setups
	ms := make([]float64, len(lat))
	byClass := map[string][]float64{}
	for i, l := range lat {
		ms[i] = l * 1e3
		name := "repeat"
		if _, target := c.request(i); target == i {
			cls, _ := c.class(i)
			name = cls.experiment
		}
		byClass[name] = append(byClass[name], ms[i])
	}
	for name, xs := range byClass {
		res.detail["latency_p50_ms."+name] = median(xs)
	}
	res.detail["latency_p50_ms"] = median(ms)
	if p99, err := tailPercentile(ms, 99); err != nil {
		res.flag("latency p99 not reported: %v", err)
	} else {
		res.detail["latency_p99_ms"] = p99
	}
	return res, nil
}

// checkResponses counts failures among a run's requests: errors and
// timeouts, non-200 answers, a repeat whose body differs from its
// fresh request's, and a digest of the first digestRequests bodies
// (keyed by request index) that differs from the committed one. It
// returns every request's latency in seconds and the count of 200s.
func checkResponses(c *config, res *result, all []outcome) ([]float64, int) {
	lat := make([]float64, len(all))
	ok := 0
	digest := sha256.New()
	for i, o := range all {
		lat[i] = o.latency.Seconds()
		res.attempted++
		_, target := c.request(i)
		switch {
		case o.err != nil:
			res.failed++
			res.flag("request %d: %v", i, o.err)
		case o.code != http.StatusOK:
			res.failed++
			res.flag("request %d: HTTP %d", i, o.code)
		case target != i && o.sum != all[target].sum:
			res.failed++
			res.flag("request %d repeats request %d but its body differs", i, target)
		default:
			ok++
		}
		if i < c.digestRequests {
			fmt.Fprintf(digest, "%d %x\n", i, o.sum)
		}
	}
	if !checkDigest(c, res, seedKey(c.seed), hex.EncodeToString(digest.Sum(nil))) {
		res.failed++
	}
	return lat, ok
}

// fromMs reads a duration the server reports in whole milliseconds,
// rounded down. A non-zero reading k stands for a time in [k, k+1) ms
// and is read as its midpoint; zero is read as zero, since a queue wait
// at one worker and one client is microseconds.
func fromMs(ms int64) time.Duration {
	if ms <= 0 {
		return 0
	}
	return time.Duration(ms)*time.Millisecond + time.Millisecond/2
}

// traceService re-enacts the workload serially: one client, one server
// worker, pool width 1. Each request's span holds the queue wait and
// run time the server reports in the job's public status, and the run
// holds the runners' wall times from its manifest. The server reports
// these in whole milliseconds; fromMs reads each at its midpoint and
// the recorder clips it to its parent, so what rounding still misreads
// is under half a millisecond per reading.
func traceService(c *config, res *result) error {
	ctx := context.Background()
	var s *server
	stop := func() error {
		if s == nil {
			return nil
		}
		err := s.stop()
		s = nil
		return err
	}
	defer stop()
	serial := func(send func(i int, body []byte, target int) error) error {
		for i := 0; i < c.traceRequests; i++ {
			body, target := c.request(i)
			if err := send(i, body, target); err != nil {
				return err
			}
		}
		return stop()
	}
	untraced := func() (err error) {
		if s, err = warmUp(c, 1); err != nil {
			return err
		}
		all := make([]outcome, c.traceRequests)
		err = serial(func(i int, body []byte, _ int) error {
			t := time.Now()
			code, data, err := s.post(body)
			all[i] = outcome{i: i, latency: time.Since(t), code: code, sum: sha256.Sum256(data), err: err}
			return nil
		})
		checkResponses(c, res, all)
		return err
	}
	traced := func(rec *recorder, n *counts) error {
		if _, err := fill(ctx, rec, c); err != nil {
			return err
		}
		err := rec.do("chip.representative", func() error {
			_, err := experiments.RepresentativeChip(ctx, expConfig(c.seed))
			return err
		})
		if err != nil {
			return err
		}
		err = rec.do("service.warmup", func() (err error) {
			s, err = warmUp(c, 1)
			return err
		})
		if err != nil {
			return err
		}
		var queued, run, overhead []float64
		err = serial(func(i int, body []byte, target int) error {
			id := len(rec.spans)
			var code int
			var sendErr error
			rec.do("service.http", func() error {
				code, _, sendErr = s.post(body)
				return nil
			})
			res.attempted++
			if sendErr != nil || code != http.StatusOK {
				res.failed++
				res.flag("traced request %d: HTTP %d, %v", i, code, sendErr)
				return nil
			}
			if target != i {
				return nil // answered from the retained job: no queue, no run
			}
			var st service.JobStatus
			err := rec.do("service.status", func() (err error) {
				var req service.Request
				if err = json.Unmarshal(body, &req); err == nil {
					err = req.Normalize()
				}
				if err == nil {
					st, err = s.status(req.JobID())
				}
				return err
			})
			if err != nil {
				return err
			}
			sp := rec.spans[id]
			qs := rec.spans[rec.add("service.queue", id, sp.start, sp.start+fromMs(st.QueuedMs))]
			runID := rec.add("service.run", id, qs.end, qs.end+fromMs(st.RunMs))
			rs := rec.spans[runID]
			at := rs.start
			if st.Manifest != nil {
				for _, rn := range st.Manifest.Runners {
					at = rec.spans[rec.add("experiments."+rn.ID, runID, at, at+fromMs(rn.WallMs))].end
					if rn.Error != "" {
						n.errors++
					}
				}
			}
			q, r := qs.end-qs.start, rs.end-rs.start
			queued = append(queued, float64(q)/1e6)
			run = append(run, float64(r)/1e6)
			overhead = append(overhead, float64(sp.end-sp.start-q-r)/1e6)
			return nil
		})
		if err != nil {
			return err
		}
		tail := func(name string, xs []float64, p float64) {
			if v, err := tailPercentile(xs, p); err != nil {
				res.flag("%s not reported: %v", name, err)
			} else {
				res.detail[name] = v
			}
		}
		tail("service.queue_wait_ms_p99", queued, 99)
		tail("service.run_ms_p99", run, 99)
		res.detail["service.run_ms_p50"] = median(run)
		res.detail["service.http_ms_p50"] = median(overhead)
		return nil
	}
	return traceLayers(c, res, untraced, traced)
}
