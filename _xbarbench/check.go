package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"

	"nanoxbar/internal/core"
	"nanoxbar/pkg/nanoxbar"
)

// implCache reads the server's cached implementations by key
// (engine.Engine.PeekCached).
type implCache interface {
	PeekCached(key string) (*core.Implementation, bool)
}

// checker runs the output checks after the timed window: every kept
// result is checked for internal consistency, every served
// implementation still in the server's cache must pass
// Implementation.Verify against its function, and the sampled results
// must equal the in-process oracle's answer to the same request.
type checker struct {
	oracle    nanoxbar.API
	cache     implCache
	sampleCap int

	verifiedKeys map[string]bool
	compared     int
	mismatches   int
	problems     []string
}

func newChecker(oracle nanoxbar.API, cache implCache, sampleCap int) *checker {
	return &checker{oracle: oracle, cache: cache, sampleCap: sampleCap, verifiedKeys: make(map[string]bool)}
}

func (c *checker) fail(o op, format string, args ...any) {
	c.mismatches++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf("request %d (%s %+v): %s", o.index, o.kind, o.fn, fmt.Sprintf(format, args...)))
	}
}

// check examines one successful request.
func (c *checker) check(ctx context.Context, r record) {
	o, out := r.op, r.out
	if out.err != nil {
		return // already counted as failed
	}
	switch {
	case out.synth != nil:
		c.checkSynthesis(o, out.synth)
	case out.yield != nil && o.stream:
		t, y := out.tally, out.yield
		if t.n != o.chips || t.indexSum != int64(o.chips)*int64(o.chips-1)/2 || t.successes != y.Successes {
			c.fail(o, "streamed %d dies (index sum %d, %d successes), aggregate says %d dies, %d successes",
				t.n, t.indexSum, t.successes, y.Chips, y.Successes)
		}
	}
	if !r.sampled || c.compared >= c.sampleCap {
		return
	}
	c.compared++
	want := call(ctx, c.oracle, o, true)
	if want.err != nil {
		c.fail(o, "oracle failed: %v", want.err)
		return
	}
	switch {
	case out.synth != nil:
		got, w := *out.synth, *want.synth
		got.CacheHit, w.CacheHit = false, false
		if got != w {
			c.fail(o, "served %+v, oracle %+v", got, w)
		}
	case out.mapped != nil:
		if !reflect.DeepEqual(out.mapped, want.mapped) {
			c.fail(o, "served %+v, oracle %+v", *out.mapped, *want.mapped)
		}
	case out.yield != nil:
		if *out.yield != *want.yield {
			c.fail(o, "served %+v, oracle %+v", *out.yield, *want.yield)
		}
		if o.stream && !reflect.DeepEqual(byIndex(out.dies), byIndex(want.dies)) {
			c.fail(o, "streamed dies differ from the oracle's")
		}
	default:
		c.fail(o, "empty result")
	}
}

// checkSynthesis checks a served synthesis summary and, while the
// server still caches it, the implementation behind it.
func (c *checker) checkSynthesis(o op, s *nanoxbar.Synthesis) {
	if s.Area != s.Rows*s.Cols {
		c.fail(o, "area %d is not rows×cols %d×%d", s.Area, s.Rows, s.Cols)
	}
	if c.verifiedKeys[s.Key] {
		return
	}
	imp, ok := c.cache.PeekCached(s.Key)
	if !ok {
		return // evicted: only the oracle sample covers it
	}
	f, err := o.fn.Resolve()
	if err != nil {
		c.fail(o, "resolve: %v", err)
		return
	}
	if imp.Rows != s.Rows || imp.Cols != s.Cols {
		c.fail(o, "served %d×%d, cached implementation is %d×%d", s.Rows, s.Cols, imp.Rows, imp.Cols)
	}
	if !imp.Verify(f) {
		c.fail(o, "cached implementation does not compute the function")
	}
	c.verifiedKeys[s.Key] = true
}

// byIndex orders streamed dies by die index (they arrive in completion
// order), with the error text standing in for the error value.
func byIndex(dies []nanoxbar.Die) []string {
	out := make([]string, len(dies))
	for i, d := range dies {
		out[i] = fmt.Sprintf("%d %+v %v", d.Index, d.Map, d.Err)
	}
	sort.Strings(out)
	return out
}
