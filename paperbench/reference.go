package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
)

//go:embed reference.json
var referenceJSON []byte

// Reference holds the advisor's full-scale outputs every benchmark
// operation is checked against: the 27 recommendations and the 45 sweep
// Reports, produced once by the serial framework path.
type Reference struct {
	Scale           string              `json:"scale"`
	Params          string              `json:"params"`
	Recommendations []RefRecommendation `json:"recommendations"`
	Reports         []RefReport         `json:"reports"`

	recs    map[question]RefRecommendation
	reports map[point]RefReport
}

// RefRecommendation is the checked part of one recommendation.
type RefRecommendation struct {
	Device       string  `json:"device"`
	App          string  `json:"app"`
	Current      string  `json:"current"`
	Suggested    string  `json:"suggested"`
	Zone         string  `json:"zone"`
	SpeedupRatio float64 `json:"speedup_ratio"`
}

// RefReport is the checked part of one exploration point's Report.
type RefReport struct {
	Device string    `json:"device"`
	App    string    `json:"app"`
	Model  string    `json:"model"`
	Total  float64   `json:"total_ns"`
	Sim    simCounts `json:"sim"`
}

// simCounts are the deterministic work counters of a Report.
type simCounts struct {
	// TotalCycles is the simulated iteration time in GPU clock cycles.
	TotalCycles     int64 `json:"total_cycles"`
	GPUInstructions int64 `json:"gpu_instructions"`
	GPUTransactions int64 `json:"gpu_transactions"`
	GPUL1Accesses   int64 `json:"gpu_l1_accesses"`
	GPULLCAccesses  int64 `json:"gpu_llc_accesses"`
	CPUInstructions int64 `json:"cpu_instructions"`
	DRAMBytes       int64 `json:"dram_bytes"`
}

func (c *simCounts) add(o simCounts) {
	c.TotalCycles += o.TotalCycles
	c.GPUInstructions += o.GPUInstructions
	c.GPUTransactions += o.GPUTransactions
	c.GPUL1Accesses += o.GPUL1Accesses
	c.GPULLCAccesses += o.GPULLCAccesses
	c.CPUInstructions += o.CPUInstructions
	c.DRAMBytes += o.DRAMBytes
}

// question is one advisory question: device × app × current model.
type question struct{ Device, App, Current string }

// point is one exploration point: device × app × model.
type point struct{ Device, App, Model string }

// currents are the models a question may name as current.
var currents = []string{"sc", "um", "zc"}

// questions returns the 27 advisory questions in a fixed order.
func questions() []question {
	var qs []question
	for _, cfg := range devices.All() {
		for _, app := range catalog.Names() {
			for _, cur := range currents {
				qs = append(qs, question{cfg.Name, app, cur})
			}
		}
	}
	return qs
}

// countsOf extracts a Report's simulated work counters on platform cfg.
func countsOf(cfg soc.Config, rep comm.Report) simCounts {
	return simCounts{
		TotalCycles:     int64(math.Round(float64(rep.Total) * float64(cfg.GPU.Freq) * 1e-9)),
		GPUInstructions: rep.GPU.Instructions,
		GPUTransactions: rep.GPU.Transactions,
		GPUL1Accesses:   rep.GPU.L1.Accesses(),
		GPULLCAccesses:  rep.GPU.LLC.Accesses(),
		CPUInstructions: rep.CPUInstrs,
		DRAMBytes:       rep.DRAMBytes,
	}
}

func loadReference(data []byte) (*Reference, error) {
	var r Reference
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}
	r.index()
	return &r, nil
}

func (r *Reference) index() {
	r.recs = make(map[question]RefRecommendation, len(r.Recommendations))
	for _, rec := range r.Recommendations {
		r.recs[question{rec.Device, rec.App, rec.Current}] = rec
	}
	r.reports = make(map[point]RefReport, len(r.Reports))
	for _, rep := range r.Reports {
		r.reports[point{rep.Device, rep.App, rep.Model}] = rep
	}
}

// checkRecommendation reports how rec differs from the reference answer to
// q, or nil when it matches.
func (r *Reference) checkRecommendation(q question, rec framework.Recommendation) error {
	want, ok := r.recs[q]
	if !ok {
		return fmt.Errorf("no reference for %v", q)
	}
	got := RefRecommendation{Device: q.Device, App: q.App, Current: q.Current,
		Suggested: rec.Suggested, Zone: rec.Zone.String(), SpeedupRatio: rec.SpeedupRatio}
	if got != want {
		return fmt.Errorf("%v: got %+v, want %+v", q, got, want)
	}
	return nil
}

// checkReport reports how an exploration point's Report differs from the
// reference, or nil when it matches.
func (r *Reference) checkReport(p point, cfg soc.Config, rep comm.Report) error {
	want, ok := r.reports[p]
	if !ok {
		return fmt.Errorf("no reference for %v", p)
	}
	got := RefReport{Device: p.Device, App: p.App, Model: p.Model,
		Total: float64(rep.Total), Sim: countsOf(cfg, rep)}
	if got != want {
		return fmt.Errorf("%v: got %+v, want %+v", p, got, want)
	}
	return nil
}

// buildReference computes the reference serially through the framework
// package — one fresh platform per characterization, recommendation and
// exploration — independent of the engine and advisord paths the
// workloads measure.
func buildReference(ctx context.Context, p microbench.Params, sc catalog.Scale) (*Reference, error) {
	ref := &Reference{Scale: scaleName(sc), Params: paramsName(p)}
	for _, cfg := range devices.All() {
		char, err := framework.Characterize(ctx, soc.New(cfg), p)
		if err != nil {
			return nil, err
		}
		for _, app := range catalog.Names() {
			w, err := catalog.ByName(app, sc)
			if err != nil {
				return nil, err
			}
			for _, cur := range currents {
				rec, err := framework.AdviseWorkload(ctx, char, soc.New(cfg), w, cur)
				if err != nil {
					return nil, err
				}
				ref.Recommendations = append(ref.Recommendations, RefRecommendation{
					Device: cfg.Name, App: app, Current: cur,
					Suggested: rec.Suggested, Zone: rec.Zone.String(), SpeedupRatio: rec.SpeedupRatio,
				})
			}
			exp, err := framework.Explore(soc.New(cfg), w, comm.AllModels())
			if err != nil {
				return nil, err
			}
			for _, m := range comm.AllModels() {
				c, ok := exp.Candidate(m.Name())
				if !ok {
					return nil, fmt.Errorf("exploration of %s/%s lacks %s", cfg.Name, app, m.Name())
				}
				ref.Reports = append(ref.Reports, RefReport{
					Device: cfg.Name, App: app, Model: m.Name(),
					Total: float64(c.Report.Total), Sim: countsOf(cfg, c.Report),
				})
			}
		}
	}
	ref.index()
	return ref, nil
}

// writeReference regenerates the committed full-scale reference.
func writeReference(ctx context.Context, path string) error {
	ref, err := buildReference(ctx, microbench.DefaultParams(), catalog.Full)
	if err != nil {
		return fmt.Errorf("build reference: %w", err)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return fmt.Errorf("encode reference: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func scaleName(sc catalog.Scale) string {
	switch sc {
	case catalog.Full:
		return "full"
	case catalog.Quick:
		return "quick"
	default:
		return "micro"
	}
}

func paramsName(p microbench.Params) string {
	switch {
	case reflect.DeepEqual(p, microbench.DefaultParams()):
		return "default"
	case reflect.DeepEqual(p, microbench.TestParams()):
		return "test"
	default:
		return "custom"
	}
}
