// Package obs is the observability layer of the harness: a
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms, all race-safe and exportable in Prometheus text format)
// plus wall-clock spans recorded as the trace.Event log internal/trace
// reads.
//
// Section V of the paper derives every IPSO parameter from execution
// logs. internal/trace does that for the simulated engines; this package
// closes the gap for the real code paths — the runner pool, the TCP
// MapReduce runtime, the online estimator — so the harness itself can be
// measured, scraped and fitted like any production system under study.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the three metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// atomicFloat is a float64 with atomic add/set via bit-casting.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by definition).
func (c *Counter) Add(delta float64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Set(v) }

// Add shifts the value by delta (negative allowed).
func (g *Gauge) Add(delta float64) { g.v.Add(delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; an implicit +Inf bucket is always present).
type Histogram struct {
	bounds []float64 // shared with the family; read-only
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    atomicFloat
	total  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~20): linear scan beats binary search in practice
	// and keeps the hot path allocation-free.
	placed := false
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Buckets returns the upper bounds and the cumulative counts at each
// bound (Prometheus semantics), excluding +Inf (which equals Count).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	bounds = make([]float64, len(h.bounds))
	copy(bounds, h.bounds)
	cumulative = make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// DefBuckets are the default latency buckets (seconds), spanning the
// microsecond task times of the simulator to multi-second network jobs.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30,
}

// family is one named metric with a fixed kind and label schema; children
// are the per-label-value instances.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histograms only
	mu     sync.Mutex
	keys   []string // insertion keys, sorted at snapshot time
	kids   map[string]any
}

func (f *family) child(labelValues []string) any {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := labelKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.kids[key]; ok {
		return m
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Uint64, len(f.bounds))
		m = h
	}
	f.kids[key] = m
	f.keys = append(f.keys, key)
	return m
}

// labelKey joins label values with an unprintable separator so distinct
// tuples cannot collide.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

func splitLabelKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, "\x1f")
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry used by the package-level
// constructors; library instrumentation (runner, netmr, core) registers
// here so one -metricsaddr endpoint exposes everything.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// lookup returns the family, creating it on first use. Re-registration
// with the same schema returns the existing family (instrumented
// libraries may be initialized more than once); a schema mismatch panics
// — it is a programming bug, not a runtime condition.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	mustValidName(name)
	for _, l := range labels {
		mustValidName(l)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		kids:   map[string]any{},
	}
	if kind == kindHistogram {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		f.bounds = bs
	}
	r.families[name] = f
	return f
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).child(nil).(*Counter)
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).child(nil).(*Gauge)
}

// Histogram returns the unlabeled histogram registered under name. Nil
// buckets default to DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, kindHistogram, nil, buckets).child(nil).(*Histogram)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for one label-value tuple.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues).(*Counter)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for one label-value tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues).(*Gauge)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family registered under
// name. Nil buckets default to DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{r.lookup(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for one label-value tuple.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues).(*Histogram)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustValidName enforces the Prometheus metric/label name charset.
func mustValidName(name string) {
	if name == "" {
		panic("obs: empty metric or label name")
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			panic(fmt.Sprintf("obs: invalid metric or label name %q", name))
		}
	}
}
