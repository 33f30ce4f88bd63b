// Package dse performs design-space exploration over device parameters:
// given a workload, sweep one platform characteristic (coherent-path
// bandwidth, copy-engine speed, pinned-path bandwidth, DRAM bandwidth) and
// find where the best communication model flips. The paper's conclusion —
// that the device's coherence support decides whether zero-copy is usable —
// becomes a measurable crossover here, and a hardware architect can ask the
// dual question: how fast must the I/O-coherent path be before ZC wins for
// this application?
package dse

import (
	"fmt"
	"math"

	"igpucomm/internal/comm"
	"igpucomm/internal/framework"
	"igpucomm/internal/soc"
	"igpucomm/internal/units"
)

// Axis is one swept device parameter.
type Axis struct {
	// Name identifies the axis in reports.
	Name string
	// Unit renders values ("GB/s").
	Unit string
	// Apply mutates a config to set the axis value.
	Apply func(cfg *soc.Config, value float64)
}

// Predefined axes.
var (
	// IOBandwidth sweeps the hardware I/O-coherence path (and forces the
	// platform coherent) — "how good must Xavier's coherence be?".
	IOBandwidth = Axis{
		Name: "io-coherence-bandwidth", Unit: "GB/s",
		Apply: func(cfg *soc.Config, v float64) {
			cfg.IOCoherent = true
			cfg.IOBandwidth = units.BytesPerSecond(v) * units.GBps
		},
	}
	// CopyBandwidth sweeps the copy engine — moves the SC<->ZC crossover.
	CopyBandwidth = Axis{
		Name: "copy-bandwidth", Unit: "GB/s",
		Apply: func(cfg *soc.Config, v float64) {
			cfg.CopyBandwidth = units.BytesPerSecond(v) * units.GBps
		},
	}
	// PinnedBandwidth sweeps the uncached pinned path on a non-coherent
	// platform.
	PinnedBandwidth = Axis{
		Name: "pinned-bandwidth", Unit: "GB/s",
		Apply: func(cfg *soc.Config, v float64) {
			cfg.IOCoherent = false
			cfg.PinnedBandwidth = units.BytesPerSecond(v) * units.GBps
		},
	}
	// DRAMBandwidth sweeps the shared memory itself.
	DRAMBandwidth = Axis{
		Name: "dram-bandwidth", Unit: "GB/s",
		Apply: func(cfg *soc.Config, v float64) {
			bw := units.BytesPerSecond(v) * units.GBps
			cfg.DRAM.Bandwidth = bw
			cfg.GPU.DRAMBandwidth = bw * 85 / 100
		},
	}
)

// AxisByName resolves a predefined axis.
func AxisByName(name string) (Axis, error) {
	for _, a := range []Axis{IOBandwidth, CopyBandwidth, PinnedBandwidth, DRAMBandwidth} {
		if a.Name == name || shortName(a.Name) == name {
			return a, nil
		}
	}
	return Axis{}, fmt.Errorf("dse: unknown axis %q (have io, copy, pinned, dram)", name)
}

func shortName(full string) string {
	switch full {
	case "io-coherence-bandwidth":
		return "io"
	case "copy-bandwidth":
		return "copy"
	case "pinned-bandwidth":
		return "pinned"
	case "dram-bandwidth":
		return "dram"
	}
	return full
}

// Point is one sweep sample.
type Point struct {
	Value float64
	// Totals per model name, in simulated ns.
	Totals map[string]units.Latency
	// Best is the fastest model at this point.
	Best string
}

// Sweep ranks the workload under the given models (the paper's three when
// nil) with framework.Explore at each axis value, on a fresh platform built
// from the modified base config. Ties go to the first model in order.
func Sweep(base soc.Config, axis Axis, values []float64, w comm.Workload, models []comm.Model) ([]Point, error) {
	if axis.Apply == nil {
		return nil, fmt.Errorf("dse: axis has no Apply")
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("dse: no axis values")
	}
	out := make([]Point, 0, len(values))
	for _, v := range values {
		cfg := base
		cfg.Name = fmt.Sprintf("%s[%s=%g]", base.Name, shortName(axis.Name), v)
		axis.Apply(&cfg, v)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("dse: %s=%g: %w", axis.Name, v, err)
		}
		exp, err := framework.Explore(soc.New(cfg), w, models)
		if err != nil {
			return nil, fmt.Errorf("dse: %s=%g: %w", axis.Name, v, err)
		}
		pt := Point{Value: v, Totals: map[string]units.Latency{}, Best: exp.Best().Model}
		for _, c := range exp.Ranked {
			pt.Totals[c.Model] = c.Total
		}
		out = append(out, pt)
	}
	return out, nil
}

// Crossover returns the first axis value at which `model` becomes the best
// choice, and whether such a point exists.
func Crossover(points []Point, model string) (float64, bool) {
	for _, p := range points {
		if p.Best == model {
			return p.Value, true
		}
	}
	return 0, false
}

// Linspace builds n evenly spaced values over [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// Geomspace builds n geometrically spaced values over [lo, hi]; lo and hi
// must be positive.
func Geomspace(lo, hi float64, n int) []float64 {
	if n <= 0 || lo <= 0 || hi <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
