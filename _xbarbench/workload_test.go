package main

import (
	"reflect"
	"testing"

	"nanoxbar/internal/core"
)

func requestList(w *workload, seed int64, n int) []op {
	ops := w.warm(seed)
	for i := int64(0); i < int64(n); i++ {
		ops = append(ops, w.next(seed, i))
	}
	return ops
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := requestList(w, 7, 2000), requestList(w, 7, 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 produced two different request lists", w.name)
		}
	}
	// Workloads whose requests carry seeds or random functions must
	// change with the seed.
	for _, name := range []string{"serve_hot", "synth_cold", "yield_bulk", "yield_stream"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(requestList(w, 7, 200), requestList(w, 8, 200)) {
			t.Errorf("%s: seeds 7 and 8 produced the same requests", name)
		}
	}
}

func TestHotMixIsOneToOne(t *testing.T) {
	w, _ := workloadByName("serve_hot")
	kinds := map[string]int{}
	for i := int64(0); i < 1000; i++ {
		kinds[string(w.next(3, i).kind)]++
	}
	if kinds["synthesize"] != 500 || kinds["map"] != 500 {
		t.Errorf("mix %v, want 500 synthesize and 500 map", kinds)
	}
}

// TestColdKeysDistinct checks that synth_cold never repeats a cache
// key: more distinct keys than the default 1024-entry cache holds,
// set-up functions included.
func TestColdKeysDistinct(t *testing.T) {
	w, _ := workloadByName("synth_cold")
	const n = 20000
	for _, seed := range []int64{1, 2, 99} {
		keys := make(map[string]int64, n)
		widths := map[int]int{}
		for i, o := range requestList(w, seed, n) {
			f, err := o.fn.Resolve()
			if err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, err)
			}
			widths[f.NumVars()]++
			k := core.CacheKey(f, core.FourTerminal, core.DefaultOptions())
			if j, dup := keys[k]; dup {
				t.Fatalf("seed %d: requests %d and %d share cache key %s (%s)", seed, j, i, k, o.fn.TT)
			}
			keys[k] = int64(i)
		}
		if widths[5] != n/4+coldWarm/4 || widths[6] != 3*n/4+3*coldWarm/4 {
			t.Errorf("seed %d: width mix %v, want one 5-input function in four", seed, widths)
		}
	}
}
