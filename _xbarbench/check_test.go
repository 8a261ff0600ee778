package main

import (
	"context"
	"strings"
	"testing"

	"nanoxbar/internal/core"
	"nanoxbar/pkg/nanoxbar"
)

// mapCache stands in for the server's implementation cache.
type mapCache map[string]*core.Implementation

func (m mapCache) PeekCached(key string) (*core.Implementation, bool) {
	imp, ok := m[key]
	return imp, ok
}

// served answers o in process, as the server would have, and caches
// the implementation behind a synthesis under its key.
func served(t *testing.T, api nanoxbar.API, cache mapCache, o op) record {
	t.Helper()
	out := call(context.Background(), api, o, true)
	if out.err != nil {
		t.Fatalf("%+v: %v", o, out.err)
	}
	if out.synth != nil {
		f, err := o.fn.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		imp, err := core.Synthesize(f, core.FourTerminal, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cache[out.synth.Key] = imp
	}
	return record{op: o, sampled: true, out: out}
}

func TestCheckerCatchesCorruptedResults(t *testing.T) {
	oracle := nanoxbar.NewClient(nanoxbar.ClientConfig{Workers: 1})
	defer oracle.Close()
	ctx := context.Background()
	synth := op{index: 1, kind: nanoxbar.KindSynthesize, fn: nanoxbar.Func("maj5")}
	mapOp := op{index: 2, kind: nanoxbar.KindMap, fn: nanoxbar.Func("maj3"), seed: 5, density: 0.05}
	sweep := op{index: 3, kind: nanoxbar.KindYield, fn: nanoxbar.Func("fig4"), seed: 9,
		density: 0.08, chipSize: 10, chips: 100, stream: true}

	for _, tc := range []struct {
		name    string
		o       op
		corrupt func(r *record, cache mapCache)
		want    string
	}{
		{"intact synthesis", synth, func(*record, mapCache) {}, ""},
		{"intact map", mapOp, func(*record, mapCache) {}, ""},
		{"intact stream", sweep, func(*record, mapCache) {}, ""},
		{"synthesis rows", synth, func(r *record, _ mapCache) {
			s := *r.out.synth
			s.Rows++
			r.out.synth = &s
		}, "area"},
		{"wrong cached implementation", synth, func(r *record, cache mapCache) {
			f, _ := nanoxbar.Func("maj3").Resolve()
			imp, _ := core.Synthesize(f, core.FourTerminal, core.DefaultOptions())
			imp.Rows, imp.Cols = r.out.synth.Rows, r.out.synth.Cols
			cache[r.out.synth.Key] = imp
		}, "does not compute"},
		{"map configs", mapOp, func(r *record, _ mapCache) {
			m := *r.out.mapped
			m.Configs++
			r.out.mapped = &m
		}, "oracle"},
		{"yield successes", sweep, func(r *record, _ mapCache) {
			y := *r.out.yield
			y.Successes--
			r.out.yield = &y
		}, "aggregate"},
		{"dropped die", sweep, func(r *record, _ mapCache) {
			r.out.tally.n--
		}, "streamed"},
		{"altered die", sweep, func(r *record, _ mapCache) {
			d := append([]nanoxbar.Die(nil), r.out.dies...)
			m := *d[0].Map
			m.Configs += 3
			d[0].Map = &m
			r.out.dies = d
		}, "dies differ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := mapCache{}
			r := served(t, oracle, cache, tc.o)
			tc.corrupt(&r, cache)
			c := newChecker(oracle, cache, 10)
			c.check(ctx, r)
			if tc.want == "" {
				if c.mismatches != 0 || c.compared != 1 {
					t.Fatalf("intact result: %d mismatches (%v), %d compared", c.mismatches, c.problems, c.compared)
				}
				return
			}
			if c.mismatches == 0 {
				t.Fatalf("corruption not caught")
			}
			if !strings.Contains(strings.Join(c.problems, "\n"), tc.want) {
				t.Errorf("problems %q do not mention %q", c.problems, tc.want)
			}
		})
	}
}

func TestCheckerSampleCap(t *testing.T) {
	oracle := nanoxbar.NewClient(nanoxbar.ClientConfig{Workers: 1})
	defer oracle.Close()
	cache := mapCache{}
	c := newChecker(oracle, cache, 2)
	for i := 0; i < 5; i++ {
		c.check(context.Background(), served(t, oracle, cache,
			op{index: int64(i), kind: nanoxbar.KindSynthesize, fn: nanoxbar.Func("maj3")}))
	}
	if c.compared != 2 || c.mismatches != 0 || len(c.verifiedKeys) != 1 {
		t.Errorf("compared %d, mismatches %d, verified %d keys", c.compared, c.mismatches, len(c.verifiedKeys))
	}
}
