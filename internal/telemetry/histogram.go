package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a goroutine-safe fixed-bucket histogram suitable for hot
// paths: Observe is a binary search over the (immutable) upper bounds plus
// two atomic adds and one CAS loop for the sum — no locks, no allocation —
// so the datapath can record latencies while a scrape reads them. It is
// the repository's one histogram.
//
// Buckets are cumulative in the exposition (Prometheus "le" semantics);
// internally each bucket counts only its own range and the render sums.
type Histogram struct {
	upper   []float64
	buckets []padUint64 // one per upper bound, +Inf implicit via count
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated

	// prerendered bucket label suffixes: {...,le="0.001"} per bound plus
	// the +Inf line, resolved at registration so a scrape allocates only
	// in the writer.
	leLabels []string
}

// padUint64 keeps adjacent buckets off each other's cache lines; bursts
// concentrate on one or two buckets, so padding mostly insulates the
// count/sum words from bucket traffic.
type padUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// NewHistogram returns a histogram over the given upper bounds, which must
// be strictly increasing. Most callers want Registry.Histogram instead,
// which also names and exposes it. Panics on unsorted bounds (programmer
// error, caught at registration).
func NewHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not increasing at %d: %g <= %g",
				i, buckets[i], buckets[i-1]))
		}
	}
	h := &Histogram{
		upper:   append([]float64(nil), buckets...),
		buckets: make([]padUint64, len(buckets)),
	}
	return h
}

// Observe records one value. Safe for concurrent use; 0 allocs/op.
func (h *Histogram) Observe(v float64) {
	if i := sort.SearchFloat64s(h.upper, v); i < len(h.buckets) {
		h.buckets[i].v.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// resolveLabels pre-renders the per-bucket label suffixes. Called once at
// registration (single-threaded by contract) so concurrent scrapes only
// read.
func (h *Histogram) resolveLabels(labels string) {
	le := make([]string, len(h.upper)+1)
	for i, ub := range h.upper {
		le[i] = leSuffix(labels, strconv.FormatFloat(ub, 'g', -1, 64))
	}
	le[len(h.upper)] = leSuffix(labels, "+Inf")
	h.leLabels = le
}

// write renders the cumulative bucket series, sum, and count. A scrape
// racing observations may read a bucket set slightly behind the count —
// the usual concurrent-histogram snapshot semantics.
func (h *Histogram) write(w io.Writer, name, labels string, _ Kind) error {
	le := h.leLabels
	if le == nil {
		// Standalone histogram never registered: render transiently.
		h.resolveLabels(labels)
		le = h.leLabels
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].v.Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le[i], cum); err != nil {
			return err
		}
	}
	count := h.count.Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le[len(h.upper)], count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
	return err
}

// leSuffix splices le="bound" into a pre-rendered label set.
func leSuffix(labels, bound string) string {
	if labels == "" {
		return `{le="` + bound + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + bound + `"}`
}

// ExpBuckets returns n exponential upper bounds starting at start and
// multiplying by factor — the usual latency ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LinearBuckets returns n linear upper bounds starting at start with the
// given width.
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("telemetry: LinearBuckets needs width > 0, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start += width
	}
	return b
}
