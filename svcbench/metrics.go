package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// A metric is one reported figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A report collects metrics and prints each as it is added, with its
// sample count, so the human-readable lines and the result line agree.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: make(map[string]metric)}
}

// add records a result-line metric.
func (r *report) add(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, unit, v, samples)
}

// note prints a figure that is not part of the result line.
func (r *report) note(name, unit string, v float64, samples int) {
	fmt.Fprintf(r.out, "metric %-26s %14.6f %-6s samples=%d\n", name, v, unit, samples)
}

func (r *report) line(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// failures counts failed operations and keeps the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.msgs) < 8 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failures) String() string { return strings.Join(f.msgs, "; ") }
