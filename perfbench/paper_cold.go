package main

import (
	"bytes"
	"context"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/experiments"
)

// startupBatch is how many child launches time paper-cold's set-up
// before each repetition and after the last. Start-up takes
// milliseconds and how long it takes swings with the host's load from
// second to second, so batches spread over the run keep one busy
// moment from moving the median.
const startupBatch = 5

// paperCold regenerates every registered artifact from empty memo
// caches, the run a paper reproducer performs (`accordion all`).
// Each repetition is one regeneration from empty caches and heap. Its
// set-up is only process start-up, which is timed in child processes.
func paperCold(c *config, traced bool) (*result, error) {
	ctx := context.Background()
	cfg := expConfig(c.seed)
	res := newResult()
	if traced {
		return res, tracePaperCold(ctx, c, res, cfg)
	}
	var walls, cpus, setups []float64
	// Each batch runs from empty caches with the heap collected and
	// returned to the OS, so no collector work competes with the
	// children.
	startups := func() error {
		coldStart()
		debug.FreeOSMemory()
		times, err := startupTimes(startupBatch)
		setups = append(setups, times...)
		return err
	}
	var first string
	begin := time.Now()
	for {
		if err := startups(); err != nil {
			return nil, err
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		results, err := experiments.RunMany(ctx, cfg, c.ids)
		wall := time.Since(t0)
		cpu := cpuSeconds() - cpu0
		if err != nil {
			return nil, err
		}
		walls, cpus = append(walls, wall.Seconds()), append(cpus, cpu)

		res.attempted++
		digest, err := renderDigest(results)
		switch {
		case err != nil:
			res.failed++
			res.flag("repetition %d: %v", len(walls), err)
		case first == "":
			first = digest
			if !checkDigest(c, res, seedKey(c.seed), digest) {
				res.failed++
			}
		case digest != first:
			res.failed++
			res.flag("repetition %d output hashes to %s, the first to %s", len(walls), digest, first)
		}
		if !repeatFor(time.Since(begin), wall, c.budget) {
			break
		}
	}
	if err := startups(); err != nil {
		return nil, err
	}
	res.set("wall_s", median(walls), "s")
	res.set("cpu_s", median(cpus), "s")
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("throughput_per_s", float64(len(c.ids)*len(walls))/sum(walls), "1/s")
	res.detail["repetitions"] = len(walls)
	res.detail["wall_s"] = walls
	res.detail["cpu_s"] = cpus
	res.detail["setup_s"] = setups
	return res, nil
}

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

// renderDigest renders results exactly as the CLI prints them and
// hashes the bytes.
func renderDigest(results []experiments.RunResult) (string, error) {
	var buf bytes.Buffer
	if err := experiments.RenderAll(&buf, results); err != nil {
		return "", err
	}
	return hashHex(buf.Bytes()), nil
}

// tracePaperCold re-enacts a regeneration in the order the runners
// depend on the shared layers: kernel construction, reference runs,
// quality fronts, the representative chip, then each runner alone.
func tracePaperCold(ctx context.Context, c *config, res *result, cfg experiments.Config) error {
	var digest string
	untraced := func() error {
		results, err := experiments.RunMany(ctx, cfg, c.ids)
		if err != nil {
			return err
		}
		digest, err = renderDigest(results)
		return err
	}
	traced := func(rec *recorder, n *counts) error {
		if _, err := fill(ctx, rec, c); err != nil {
			return err
		}
		err := rec.do("chip.representative", func() error {
			_, err := experiments.RepresentativeChip(ctx, cfg)
			return err
		})
		if err != nil {
			return err
		}
		var all []experiments.RunResult
		runners := map[string]float64{}
		for _, id := range c.ids {
			var results []experiments.RunResult
			err := rec.do("experiments."+id, func() (err error) {
				results, err = experiments.RunMany(ctx, cfg, []string{id})
				return err
			})
			if err != nil {
				return err
			}
			if results[0].Err != nil {
				n.errors++
			}
			runners[id] = results[0].Elapsed.Seconds()
			all = append(all, results...)
		}
		res.detail["runner_s"] = runners
		tracedDigest, err := renderDigest(all)
		if err != nil {
			return err
		}
		res.attempted += 2
		if !checkDigest(c, res, seedKey(c.seed), digest) {
			res.failed++
		}
		if tracedDigest != digest {
			res.failed++
			res.flag("traced re-enactment hashes to %s, the untraced pass to %s", tracedDigest, digest)
		}
		return nil
	}
	return traceLayers(c, res, untraced, traced)
}
