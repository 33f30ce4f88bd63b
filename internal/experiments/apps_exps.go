package experiments

import (
	"context"
	"fmt"

	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/report"
)

// AppProfile is one board's profiling row for an application (Tables II/IV).
type AppProfile struct {
	Board           string
	CPUUsage        float64
	CPUThreshold    float64
	GPUUsage        float64
	GPUThresholdLo  float64
	GPUThresholdHi  float64
	KernelTimePerUS float64
	CopyTimePerUS   float64
	Zone            framework.Zone
	Suggested       string
	PredictedPct    float64 // predicted speedup of adopting the suggestion, %
}

// profileApp runs the advisor and reports its SC classification profile.
func (c *Context) profileApp(ctx context.Context, board string, w comm.Workload, currentModel string) (AppProfile, error) {
	char, err := c.Char(ctx, board)
	if err != nil {
		return AppProfile{}, err
	}
	s, err := c.SoC(board)
	if err != nil {
		return AppProfile{}, err
	}
	rec, prof, _, err := framework.AdviseOn(ctx, char, w, currentModel, microbench.Serial(s))
	if err != nil {
		return AppProfile{}, err
	}
	return AppProfile{
		Board:           board,
		CPUUsage:        rec.CPUUsage,
		CPUThreshold:    char.Thresholds.CPUCache,
		GPUUsage:        rec.GPUUsage,
		GPUThresholdLo:  char.Thresholds.GPUCacheLow,
		GPUThresholdHi:  char.Thresholds.GPUCacheHigh,
		KernelTimePerUS: prof.KernelTimePer.Seconds() * 1e6,
		CopyTimePerUS:   prof.CopyTimePer.Seconds() * 1e6,
		Zone:            rec.Zone,
		Suggested:       rec.Suggested,
		PredictedPct:    rec.SpeedupPercent(),
	}, nil
}

// Table2Data is experiment E6: SH-WFS profiling (paper Table II).
type Table2Data struct{ Rows map[string]AppProfile }

// Table2 regenerates the SH-WFS profiling table on all three boards.
func Table2(ctx context.Context, c *Context) (report.Table, Table2Data, error) {
	w, err := shwfsWorkload()
	if err != nil {
		return report.Table{}, Table2Data{}, err
	}
	data := Table2Data{Rows: map[string]AppProfile{}}
	t := report.Table{
		Title: "Table II — Profiling results of the SH-WFS application",
		Headers: []string{"Board", "CPU usage %", "CPU thresh %", "GPU usage %",
			"GPU thresh %", "Kernel µs", "Copy/kernel µs", "Suggests", "Predicted %"},
		Note: "paper rows: Nano 19.8/15.6/1.7/2.5/453.5/44.8/-, TX2 19.8/15.6/3.7/2.7/175.2/22.4/-, Xavier 6.1/100/7.0/16.2-57.1/41.2/16.88/69.3",
	}
	for _, board := range []string{devices.NanoName, devices.TX2Name, devices.XavierName} {
		row, err := c.profileApp(ctx, board, w, "sc")
		if err != nil {
			return report.Table{}, Table2Data{}, err
		}
		data.Rows[board] = row
		t.AddRow(board, row.CPUUsage*100, row.CPUThreshold*100, row.GPUUsage*100,
			fmt.Sprintf("%.1f-%.1f", row.GPUThresholdLo*100, row.GPUThresholdHi*100),
			row.KernelTimePerUS, row.CopyTimePerUS, row.Suggested, row.PredictedPct)
	}
	return t, data, nil
}

// ModelRun is one (board, model) measured outcome.
type ModelRun struct {
	TotalUS     float64
	CPUOnlyUS   float64
	KernelPerUS float64
	EnergyJ     float64
}

// Table3Data is experiment E7: SH-WFS measured performance (paper Table III)
// plus the energy deltas §IV-B reports.
type Table3Data struct {
	// Runs[board][model].
	Runs map[string]map[string]ModelRun
	// EnergySavingJPerS[board] is the SC->ZC energy saving at the paper's
	// iteration rate.
	EnergySavingJPerS map[string]float64
}

// Table3IterationRate is the frame rate the energy deltas are computed at.
const Table3IterationRate = 30.0

// Table3 regenerates the SH-WFS per-model measurements.
func Table3(ctx context.Context, c *Context) (report.Table, Table3Data, error) {
	w, err := shwfsWorkload()
	if err != nil {
		return report.Table{}, Table3Data{}, err
	}
	data := Table3Data{
		Runs:              map[string]map[string]ModelRun{},
		EnergySavingJPerS: map[string]float64{},
	}
	t := report.Table{
		Title: "Table III — SH-WFS centroid extraction performance",
		Headers: []string{"Board", "Model", "Total µs", "CPU-only µs", "Kernel µs",
			"vs SC %", "Kernel vs SC %"},
		Note: "paper: Nano ZC -67%, TX2 ZC -5%, Xavier ZC +38%; UM within ±5% of SC; energy saving ~0.12 J/s (Xavier), ~0.09 J/s (TX2)",
	}
	for _, board := range []string{devices.NanoName, devices.TX2Name, devices.XavierName} {
		reps, err := c.runModels(board, w, comm.Models())
		if err != nil {
			return report.Table{}, Table3Data{}, err
		}
		s, err := c.SoC(board)
		if err != nil {
			return report.Table{}, Table3Data{}, err
		}
		data.Runs[board] = map[string]ModelRun{}
		sc := reps["sc"]
		for _, model := range []string{"sc", "um", "zc"} {
			rep := reps[model]
			run := ModelRun{
				TotalUS:     rep.Total.Seconds() * 1e6,
				CPUOnlyUS:   rep.CPUTime.Seconds() * 1e6,
				KernelPerUS: rep.KernelTimePer().Seconds() * 1e6,
				EnergyJ:     s.Config().Power.Joules(rep.Energy),
			}
			data.Runs[board][model] = run
			t.AddRow(board, model, run.TotalUS, run.CPUOnlyUS, run.KernelPerUS,
				speedupPct(sc.Total.Seconds(), rep.Total.Seconds()),
				speedupPct(sc.KernelTimePer().Seconds(), rep.KernelTimePer().Seconds()))
		}
		data.EnergySavingJPerS[board] = s.Config().Power.SavingPerSecond(
			reps["sc"].Energy, reps["zc"].Energy, Table3IterationRate)
	}
	return t, data, nil
}

// Table4Data is experiment E8: ORB-SLAM profiling (paper Table IV).
type Table4Data struct{ Rows map[string]AppProfile }

// Table4 regenerates the ORB-SLAM profiling table (TX2 and Xavier, as in the
// paper; the Nano cannot hold the app's real-time constraint).
func Table4(ctx context.Context, c *Context) (report.Table, Table4Data, error) {
	w, err := orbWorkload()
	if err != nil {
		return report.Table{}, Table4Data{}, err
	}
	data := Table4Data{Rows: map[string]AppProfile{}}
	t := report.Table{
		Title: "Table IV — Profiling results of the ORB-SLAM application",
		Headers: []string{"Board", "CPU usage %", "CPU thresh %", "GPU usage %",
			"GPU thresh %", "Kernel µs", "Copy/kernel µs", "Suggests", "Predicted %"},
		Note: "paper rows: TX2 0/15.6/25.3/2.7/93.56/1.57/-, Xavier 0/100/20.1/16.2-57.1/24.22/1.35/5.9",
	}
	for _, board := range []string{devices.TX2Name, devices.XavierName} {
		row, err := c.profileApp(ctx, board, w, "sc")
		if err != nil {
			return report.Table{}, Table4Data{}, err
		}
		data.Rows[board] = row
		t.AddRow(board, row.CPUUsage*100, row.CPUThreshold*100, row.GPUUsage*100,
			fmt.Sprintf("%.1f-%.1f", row.GPUThresholdLo*100, row.GPUThresholdHi*100),
			row.KernelTimePerUS, row.CopyTimePerUS, row.Suggested, row.PredictedPct)
	}
	return t, data, nil
}

// Table5Data is experiment E9: ORB-SLAM SC vs ZC (paper Table V).
type Table5Data struct {
	Runs              map[string]map[string]ModelRun
	EnergySavingJPerS map[string]float64 // at the 30 Hz camera rate
}

// Table5 regenerates the ORB-SLAM measured comparison.
func Table5(ctx context.Context, c *Context) (report.Table, Table5Data, error) {
	w, err := orbWorkload()
	if err != nil {
		return report.Table{}, Table5Data{}, err
	}
	data := Table5Data{
		Runs:              map[string]map[string]ModelRun{},
		EnergySavingJPerS: map[string]float64{},
	}
	t := report.Table{
		Title:   "Table V — ORB-SLAM performance (SC vs ZC)",
		Headers: []string{"Board", "Model", "Total µs", "Kernel µs", "vs SC %", "Kernel vs SC %"},
		Note:    "paper: TX2 ZC -744% total / -880% kernel; Xavier ZC 0% total / -10% kernel, 0.17 J/s energy saving at 30 Hz",
	}
	for _, board := range []string{devices.TX2Name, devices.XavierName} {
		reps, err := c.runModels(board, w, []comm.Model{comm.SC{}, comm.ZC{}})
		if err != nil {
			return report.Table{}, Table5Data{}, err
		}
		s, err := c.SoC(board)
		if err != nil {
			return report.Table{}, Table5Data{}, err
		}
		data.Runs[board] = map[string]ModelRun{}
		sc := reps["sc"]
		for _, model := range []string{"sc", "zc"} {
			rep := reps[model]
			run := ModelRun{
				TotalUS:     rep.Total.Seconds() * 1e6,
				KernelPerUS: rep.KernelTimePer().Seconds() * 1e6,
				EnergyJ:     s.Config().Power.Joules(rep.Energy),
			}
			data.Runs[board][model] = run
			t.AddRow(board, model, run.TotalUS, run.KernelPerUS,
				speedupPct(sc.Total.Seconds(), rep.Total.Seconds()),
				speedupPct(sc.KernelTimePer().Seconds(), rep.KernelTimePer().Seconds()))
		}
		data.EnergySavingJPerS[board] = s.Config().Power.SavingPerSecond(
			sc.Energy, reps["zc"].Energy, Table3IterationRate)
	}
	return t, data, nil
}
