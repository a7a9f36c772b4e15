// Command tracesim drives the trace-driven core simulator over Table
// 2's memory hierarchy: either one of the built-in kernel mixes (by
// benchmark name) or a custom synthetic mix, at a chosen frequency —
// the microarchitectural ground truth behind the analytic work
// profiles.
//
// Usage:
//
//	tracesim -bench canneal [-f GHz] [-n instructions]
//	tracesim -kind random -ws 8388608 -memfrac 0.3 [-hot 0.99] [-f GHz]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sim"
)

var (
	benchName = flag.String("bench", "", "use a kernel's reference mix (canneal ferret bodytrack x264 hotspot srad btcmine)")
	kindStr   = flag.String("kind", "random", "custom mix: streaming, strided, random, pointer-chase")
	ws        = flag.Int("ws", 1<<20, "custom mix: working set in bytes")
	memfrac   = flag.Float64("memfrac", 0.3, "custom mix: memory references per instruction")
	hot       = flag.Float64("hot", 0.9, "custom mix: fraction of references to the hot region")
	stride    = flag.Int("stride", 8, "custom mix: stride in bytes for streaming/strided")
	freq      = flag.Float64("f", 1.0, "core frequency in GHz")
	n         = flag.Int64("n", 500000, "dynamic instructions to simulate")
	obsFlags  = obs.Register(flag.CommandLine, "telemetry")
)

func main() {
	flag.Parse()
	run, err := obsFlags.Start("tracesim")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracesim: %v\n", err)
		os.Exit(1)
	}
	fail := func(err error) { run.Exit(1, err) }

	var spec sim.TraceSpec
	if *benchName != "" {
		b, err := experiments.BenchmarkByName(*benchName)
		if err != nil {
			fail(err)
		}
		spec = b.Trace()
		fmt.Printf("%s reference mix: %s over %d KB, %.0f%% memory instructions\n",
			b.Name(), spec.Kind, spec.WorkingSetBytes/1024, spec.MemFrac*100)
	} else {
		var kind sim.AccessKind
		switch *kindStr {
		case "streaming":
			kind = sim.Streaming
		case "strided":
			kind = sim.Strided
		case "random":
			kind = sim.RandomUniform
		case "pointer-chase":
			kind = sim.PointerChase
		default:
			fail(fmt.Errorf("unknown access kind %q", *kindStr))
		}
		spec = sim.TraceSpec{
			Kind: kind, WorkingSetBytes: *ws, MemFrac: *memfrac,
			HotFrac: *hot, HotBytes: 16 * 1024, StrideBytes: *stride, Seed: 1,
		}
	}

	res, err := sim.SimulateCore(spec, *n, *freq)
	if err != nil {
		fail(err)
	}
	fmt.Printf("instructions: %d   memory refs: %d (%.1f%%)\n",
		res.Instructions, res.MemRefs, 100*float64(res.MemRefs)/float64(res.Instructions))
	fmt.Printf("L1 (64KB 4-way):  %d accesses, miss rate %.4f\n", res.L1.Accesses, res.L1.MissRate())
	fmt.Printf("L2 (2MB 16-way):  %d accesses, miss rate %.4f\n", res.L2.Accesses, res.L2.MissRate())
	fmt.Printf("CPI @ %.2f GHz:   %.3f   (long-latency misses/op: %.2e)\n", *freq, res.CPI, res.MissPerOp)
	run.Exit(0, nil)
}
