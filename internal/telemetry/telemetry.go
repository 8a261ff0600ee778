// Package telemetry is the stdlib-only metrics and tracing substrate of
// the nanoxbar serving stack: atomic counters and gauges, lock-free
// log-spaced latency histograms, a registry that renders the Prometheus
// text exposition format (served at GET /metrics by internal/httpapi),
// and the request-ID context plumbing used by the structured request
// logs.
//
// Design constraints, in order:
//
//  1. Observation is the hot path. Counter.Add and Histogram.Observe
//     are a handful of atomic operations with no locks, no maps, and no
//     allocations — cheap enough to sit inside the per-die mapping loop
//     (~3µs/die), where a mutex or a label-lookup map would show up.
//  2. Exposition is the cold path. WriteText may take locks, walk
//     closures, and format floats; it runs once per scrape.
//  3. No dependencies. The exposition format is plain text; a
//     Prometheus client library would be the only external dependency
//     in the module, for a format a few hundred lines render and parse.
//
// Metrics are registered once at construction time with their full
// label set pre-rendered (labels are static — per-kind, per-stage,
// per-endpoint — never per-request), then observed through the returned
// handle. Scrape-time values (pool sizes, cache counters,
// runtime stats) register closures instead, sampled only when /metrics
// is hit.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric family types, as rendered on # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use, but counters are normally obtained from Registry.Counter so
// they render on /metrics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// series is one labeled sample of a family, valued at scrape time.
// Exactly one of ctr/gauge/hist/value is set; ctr and gauge double as
// the handles returned on idempotent re-registration.
type series struct {
	labels string // pre-rendered `k="v",...` or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	value  func() float64 // CounterFunc/GaugeFunc closure
}

// sample reads the series' current value (histograms render
// themselves and never come through here).
func (s *series) sample() float64 {
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	default:
		return s.value()
	}
}

// family groups the series of one metric name under a single
// # HELP/# TYPE header, as the exposition format requires.
type family struct {
	name, help, typ string
	series          []*series
	// collect, when non-nil, emits dynamically labeled samples at
	// scrape time (e.g. one per cluster member state); static series render
	// first, then collected ones.
	collect func(emit func(labels string, v float64))
	// collectHist, when non-nil, snapshots an externally maintained
	// histogram at scrape time (the runtime GC pause distribution):
	// finite upper bounds in seconds, per-bucket counts with one extra
	// overflow bucket, and the sum in seconds.
	collectHist func() (bounds []float64, counts []uint64, sum float64, ok bool)
}

// Registry holds metric families in registration order and renders
// them as Prometheus text exposition format 0.0.4. All methods are safe
// for concurrent use; registration is idempotent — re-registering a
// name+labels pair returns the existing handle instead of duplicating
// the series.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// familyFor finds or creates the family for name. The first
// registration fixes help and type; later ones must agree (mismatches
// panic: they are wiring bugs, not runtime conditions).
func (r *Registry) familyFor(name, help, typ string) *family {
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("telemetry: %s registered as both %s and %s", name, f.typ, typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// findSeries returns the existing series with the rendered label set,
// or nil.
func (f *family) findSeries(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	return nil
}

// Counter registers (or returns the existing) counter series. Labels
// are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeCounter)
	if s := f.findSeries(ls); s != nil {
		return s.ctr
	}
	c := &Counter{}
	f.series = append(f.series, &series{labels: ls, ctr: c})
	return c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeGauge)
	if s := f.findSeries(ls); s != nil {
		return s.gauge
	}
	g := &Gauge{}
	f.series = append(f.series, &series{labels: ls, gauge: g})
	return g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotone counts that already live elsewhere as atomics
// (engine request counters, lattice evaluation totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, typeCounter, fn, labels)
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.registerFunc(name, help, typeGauge, fn, labels)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labels []string) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typ)
	if f.findSeries(ls) != nil {
		return
	}
	f.series = append(f.series, &series{labels: ls, value: fn})
}

// Collect registers a whole family whose samples are produced at scrape
// time with dynamic labels (e.g. one sample per cluster member state). typ is
// "counter" or "gauge".
func (r *Registry) Collect(name, help, typ string, collect func(emit func(labels string, v float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typ)
	f.collect = collect
}

// CollectHistogram registers a histogram family whose buckets are
// snapshotted from fn at scrape time. fn returns finite upper bounds in
// seconds, per-bucket counts carrying one extra overflow bucket
// (len(counts) == len(bounds)+1), and the sum in seconds; ok=false
// skips the family for this scrape.
func (r *Registry) CollectHistogram(name, help string, fn func() (bounds []float64, counts []uint64, sum float64, ok bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeHistogram)
	f.collectHist = fn
}

// Histogram registers (or returns the existing) log-spaced latency
// histogram series. See histogram.go for the bucket layout.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeHistogram)
	if s := f.findSeries(ls); s != nil {
		return s.hist
	}
	h := newHistogram()
	f.series = append(f.series, &series{labels: ls, hist: h})
	return h
}

// Label renders one k="v" pair for Collect emitters, escaping the value
// per the exposition format.
func Label(k, v string) string {
	var b strings.Builder
	appendLabel(&b, k, v)
	return b.String()
}

// renderLabels turns alternating key, value pairs into the canonical
// `k1="v1",k2="v2"` form (sorted by key so the same logical label set
// always hits the same series).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list (want key, value pairs)")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		appendLabel(&b, p.k, p.v)
	}
	return b.String()
}

func appendLabel(b *strings.Builder, k, v string) {
	b.WriteString(k)
	b.WriteString(`="`)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
}

// WriteText renders every family in registration order as Prometheus
// text exposition format 0.0.4.
func (r *Registry) WriteText(w io.Writer) error {
	// Snapshot the family list under the lock, render outside it:
	// family series slices are append-only and samples are atomics or
	// closures safe to call concurrently.
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(strings.ReplaceAll(f.help, "\n", " "))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for _, s := range f.series {
			if s.hist != nil {
				s.hist.writeText(&b, f.name, s.labels)
				continue
			}
			writeSample(&b, f.name, "", s.labels, s.sample())
		}
		if f.collect != nil {
			f.collect(func(labels string, v float64) {
				writeSample(&b, f.name, "", labels, v)
			})
		}
		if f.collectHist != nil {
			if bounds, counts, sum, ok := f.collectHist(); ok && len(counts) == len(bounds)+1 {
				var cum uint64
				for i, bound := range bounds {
					cum += counts[i]
					var le strings.Builder
					appendLabel(&le, "le", formatValue(bound))
					writeBucket(&b, f.name, "", le.String(), cum)
				}
				cum += counts[len(bounds)]
				writeBucket(&b, f.name, "", `le="+Inf"`, cum)
				writeSample(&b, f.name, "_sum", "", sum)
				writeSample(&b, f.name, "_count", "", float64(cum))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSample renders one `name{labels} value` line. suffix is appended
// to the name (histogram _bucket/_sum/_count); extraLabel, when
// non-empty, is appended after labels (the le="..." pair).
func writeSample(b *strings.Builder, name, suffix, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
