package experiments

import (
	"context"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/report"
)

// AsyncData is the extension experiment (beyond the paper): the
// double-buffered standard copy (sc-async) and the copied-in/pinned-out
// hybrid against the paper's models on both case studies. It answers the
// natural follow-up to the paper's SC-vs-ZC dichotomy: how much of ZC's
// copy-elimination gain can a port recover without giving up cached memory
// wholesale?
type AsyncData struct {
	// Totals[board][app][model] in µs.
	Totals map[string]map[string]map[string]float64
}

// TableAsync runs the extension comparison.
func TableAsync(ctx context.Context, c *Context) (report.Table, AsyncData, error) {
	data := AsyncData{Totals: map[string]map[string]map[string]float64{}}
	t := report.Table{
		Title:   "Extension — sc-async and hybrid vs the paper's models",
		Headers: []string{"Board", "App", "SC µs", "SC-async µs", "Hybrid µs", "ZC µs", "async vs SC %", "hybrid vs SC %"},
		Note:    "sc-async hides stripe copies behind kernels (CUDA streams) and is always safe; hybrid (copied inputs, pinned outputs) helps only when the CPU consumes results lightly — ORB's matcher hammers the pinned feature buffer, so on TX2 hybrid inherits ZC's collapse",
	}
	apps := map[string]func() (comm.Workload, error){
		"shwfs":   shwfsWorkload,
		"orbslam": orbWorkload,
	}
	for _, board := range []string{devices.TX2Name, devices.XavierName} {
		data.Totals[board] = map[string]map[string]float64{}
		for _, app := range []string{"shwfs", "orbslam"} {
			w, err := apps[app]()
			if err != nil {
				return report.Table{}, AsyncData{}, err
			}
			reps, err := c.runModels(board, w, []comm.Model{comm.SC{}, comm.SCAsync{}, comm.Hybrid{}, comm.ZC{}})
			if err != nil {
				return report.Table{}, AsyncData{}, err
			}
			totals := map[string]float64{}
			for model, rep := range reps {
				totals[model] = rep.Total.Seconds() * 1e6
			}
			data.Totals[board][app] = totals
			t.AddRow(board, app, totals["sc"], totals["sc-async"], totals["hybrid"], totals["zc"],
				speedupPct(totals["sc"], totals["sc-async"]),
				speedupPct(totals["sc"], totals["hybrid"]))
		}
	}
	return t, data, nil
}
