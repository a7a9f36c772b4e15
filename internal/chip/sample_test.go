package chip

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestCoreDelayMatchesCoreFreqAtPerr(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	perrs := []float64{1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 2e-6, 0.5, 1, 2}
	for _, seed := range []int64{1, 2014, 77} {
		ch := f.Sample(seed)
		tp := ch.Cfg.Tech
		for _, vdd := range []float64{ch.VddNTV(), 0.7, tp.VddNomSTV, 0} {
			for _, perr := range perrs {
				z := tp.PerrQuantile(perr)
				for i := range ch.Cores {
					want := ch.CoreFreqAtPerr(i, vdd, perr)
					got := ch.CoreDelay(i, vdd).FreqAt(z)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d core %d vdd %g perr %g: %v, CoreFreqAtPerr %v", seed, i, vdd, perr, got, want)
					}
					if vdd == 0 && got != 0 {
						t.Fatalf("core %d at vdd 0: %v GHz", i, got)
					}
				}
			}
		}
	}
}

func TestSampleIntoRecycledChip(t *testing.T) {
	f, err := NewFactory(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig()
	small.Clusters, small.CoresPer = 4, 2
	g, err := NewFactory(small)
	if err != nil {
		t.Fatal(err)
	}
	// Recycle chips from another seed, and from a smaller factory whose
	// slices are too short to reuse; each draw must equal a fresh one.
	recycled := []*Chip{f.Sample(3), g.Sample(3), new(Chip)}
	for _, seed := range []int64{1, 2014, 99} {
		want := f.Sample(seed)
		for _, dst := range recycled {
			if got := f.SampleInto(dst, seed); got != dst || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: SampleInto a recycled chip differs from Sample", seed)
			}
		}
	}
	// A larger chip's slices shrink to the smaller configuration.
	if got, want := g.SampleInto(f.Sample(5), 5), g.Sample(5); !reflect.DeepEqual(got, want) {
		t.Fatal("SampleInto a larger recycled chip differs from Sample")
	}
}

func TestSelectFastestOrderUnchanged(t *testing.T) {
	ch := testChip(t, 2014)
	for _, vdd := range []float64{ch.VddNTV(), 0.7, ch.Cfg.Tech.VddNomSTV} {
		want := make([]int, len(ch.Cores))
		for i := range want {
			want[i] = i
		}
		// The comparator SelectFastest used before its keys were
		// computed once per call.
		sort.Slice(want, func(a, b int) bool {
			return ch.CoreSafeFreq(want[a], vdd) > ch.CoreSafeFreq(want[b], vdd)
		})
		if got := ch.SelectCores(len(ch.Cores), vdd, SelectFastest); !reflect.DeepEqual(got, want) {
			t.Fatalf("vdd %g: SelectFastest order changed", vdd)
		}
	}
}
