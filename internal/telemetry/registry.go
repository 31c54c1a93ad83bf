// Package telemetry is a thread-safe metrics Registry of counters, gauges
// and fixed-bucket histograms, rendered in the Prometheus text exposition
// format. Publishing goes through pre-acquired handles whose hot path is a
// single atomic operation (no locks, no channels, no allocation), so any
// number of goroutines can publish while the registry is rendered.
//
// Nothing in the simulator publishes into it or renders it; the package
// awaits deletion.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus metric type of a family.
type Kind uint8

// Metric kinds.
const (
	CounterKind Kind = iota
	GaugeKind
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case CounterKind:
		return "counter"
	case HistogramKind:
		return "histogram"
	}
	return "gauge"
}

// Label is one name="value" pair on a series.
type Label struct {
	Key, Value string
}

// Series is one labeled time series inside a family. Its hot-path methods
// (Set, Add, Inc) are single atomic operations on a float64 bit pattern:
// safe from any goroutine, never blocking, never allocating — the lock-free
// publish path simulation threads use.
type Series struct {
	bits atomic.Uint64
}

// Set stores v (gauges).
func (s *Series) Set(v float64) {
	if s == nil {
		return
	}
	s.bits.Store(math.Float64bits(v))
}

// Add atomically adds v (counters; also usable on gauges for +/- deltas).
func (s *Series) Add(v float64) {
	if s == nil {
		return
	}
	for {
		old := s.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (s *Series) Inc() { s.Add(1) }

// Value reads the current value.
func (s *Series) Value() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.bits.Load())
}

// family is one named metric with its labeled series. Exactly one of
// series (counter/gauge) and hists (histogram) is populated.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*Series    // keyed by rendered label signature
	hists      map[string]*Histogram // histogram families only
}

// Emit is the callback a scrape-time Collector pushes dynamic series
// through; name must already be a valid metric name (see Sanitize).
type Emit func(name, help string, kind Kind, labels []Label, v float64)

// Collector produces series at scrape time — used for values that live in
// another structure rather than being pushed continuously.
type Collector func(emit Emit)

// Registry is a thread-safe collection of metric families rendered in the
// Prometheus text exposition format. Handle acquisition (Counter/Gauge)
// takes a lock; publishing on the returned *Series does not.
type Registry struct {
	mu         sync.RWMutex
	fams       map[string]*family
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns (creating on first use) the counter series name{labels}.
// The name must be a valid Prometheus metric name (see Sanitize); labels
// are rendered in the order given.
func (r *Registry) Counter(name, help string, labels ...Label) *Series {
	return r.get(name, help, CounterKind, labels)
}

// Gauge returns (creating on first use) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Series {
	return r.get(name, help, GaugeKind, labels)
}

// RegisterCollector adds a scrape-time collector.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

func (r *Registry) get(name, help string, kind Kind, labels []Label) *Series {
	sig := labelSig(labels)
	r.mu.RLock()
	f := r.fams[name]
	var s *Series
	if f != nil && f.kind == kind {
		s = f.series[sig]
	}
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*Series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	s = f.series[sig]
	if s == nil {
		s = &Series{}
		f.series[sig] = s
	}
	return s
}

// labelSig renders labels as the {k="v",...} suffix (empty for none).
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Sanitize maps an arbitrary dotted probe name (e.g. "dap.credit.fwb",
// "mm.c0.util") onto a valid Prometheus metric name ("dap_credit_fwb").
func Sanitize(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// row is one rendered exposition sample: an optional name suffix
// ("_bucket", "_sum", "_count" for histograms), the label signature, and
// the value.
type row struct {
	suffix string
	sig    string
	val    float64
}

// WritePrometheus renders every family — static series plus collector
// output — in the text exposition format with stable ordering: families
// sorted by name, each preceded by its HELP/TYPE lines, series sorted by
// label signature. Histogram families render each series as its cumulative
// `_bucket` ladder followed by `_sum` and `_count`, bucket order preserved.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type fam struct {
		help   string
		kind   Kind
		rows   []row
		sorted bool // histogram rows arrive pre-ordered; do not re-sort
	}
	out := make(map[string]*fam)

	r.mu.RLock()
	for name, f := range r.fams {
		o := &fam{help: f.help, kind: f.kind}
		if f.kind == HistogramKind {
			o.sorted = true
			sigs := make([]string, 0, len(f.hists))
			for sig := range f.hists {
				sigs = append(sigs, sig)
			}
			sort.Strings(sigs)
			for _, sig := range sigs {
				o.rows = append(o.rows, histRows(sig, f.hists[sig])...)
			}
		} else {
			for sig, s := range f.series {
				o.rows = append(o.rows, row{sig: sig, val: s.Value()})
			}
		}
		out[name] = o
	}
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()

	emit := func(name, help string, kind Kind, labels []Label, v float64) {
		o := out[name]
		if o == nil {
			o = &fam{help: help, kind: kind}
			out[name] = o
		}
		o.rows = append(o.rows, row{sig: labelSig(labels), val: v})
	}
	for _, c := range collectors {
		c(emit)
	}

	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, name := range names {
		o := out[name]
		if o.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", name, strings.ReplaceAll(o.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, o.kind)
		if !o.sorted {
			sort.Slice(o.rows, func(i, j int) bool { return o.rows[i].sig < o.rows[j].sig })
		}
		for _, rw := range o.rows {
			fmt.Fprintf(bw, "%s%s%s %s\n", name, rw.suffix, rw.sig, formatProm(rw.val))
		}
	}
	return bw.Flush()
}

// formatProm renders a sample value the way Prometheus expects.
func formatProm(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
