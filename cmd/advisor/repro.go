package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/experiments"
	"igpucomm/internal/framework"
	"igpucomm/internal/heatmap"
	"igpucomm/internal/report"
	"igpucomm/internal/soc"
)

// reproCmd regenerates every table and figure of the paper's evaluation
// (§IV) on the simulated platforms and prints them with the paper's
// reference values alongside.
func reproCmd(fs *flag.FlagSet) runFunc {
	exp := fs.String("exp", "all", "experiment to run: all, table1..table5, fig3, fig5, fig6, fig7, async, energy, realtime, heatmap")
	quick := fs.Bool("quick", false, "use the reduced micro-benchmark scale")
	format := fs.String("format", "text", "output format for tables: text or md")
	return func(ctx context.Context, out, _ io.Writer) error {
		params, scale := scaleFor(*quick)
		ec := experiments.NewContext(params)

		type artifact struct {
			name string
			run  func() (fmt.Stringer, error)
		}
		artifacts := []artifact{
			{"table1", func() (fmt.Stringer, error) { t, _, err := experiments.Table1(ctx, ec); return t, err }},
			{"fig5", func() (fmt.Stringer, error) { t, _, err := experiments.Fig5(ctx, ec); return t, err }},
			{"fig3", func() (fmt.Stringer, error) { s, _, err := experiments.Fig3(ctx, ec); return s, err }},
			{"fig6", func() (fmt.Stringer, error) { s, _, err := experiments.Fig6(ctx, ec); return s, err }},
			{"fig7", func() (fmt.Stringer, error) { t, _, err := experiments.Fig7(ctx, ec); return t, err }},
			{"table2", func() (fmt.Stringer, error) { t, _, err := experiments.Table2(ctx, ec); return t, err }},
			{"table3", func() (fmt.Stringer, error) { t, _, err := experiments.Table3(ctx, ec); return t, err }},
			{"table4", func() (fmt.Stringer, error) { t, _, err := experiments.Table4(ctx, ec); return t, err }},
			{"table5", func() (fmt.Stringer, error) { t, _, err := experiments.Table5(ctx, ec); return t, err }},
			{"async", func() (fmt.Stringer, error) { t, _, err := experiments.TableAsync(ctx, ec); return t, err }},
			{"energy", func() (fmt.Stringer, error) { t, _, err := experiments.TableEnergy(ctx, ec); return t, err }},
			{"realtime", func() (fmt.Stringer, error) { t, _, err := experiments.TableRealtime(ctx, ec); return t, err }},
			{"heatmap", func() (fmt.Stringer, error) { return runHeat(scale) }},
		}

		ran := 0
		for _, a := range artifacts {
			if *exp != "all" && !strings.EqualFold(*exp, a.name) {
				continue
			}
			res, err := a.run()
			if err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			if tab, ok := res.(report.Table); ok && *format == "md" {
				fmt.Fprintln(out, tab.Markdown())
			} else {
				fmt.Fprintln(out, res.String())
			}
			ran++
		}
		if ran == 0 {
			return usageError{fmt.Errorf("unknown experiment %q", *exp)}
		}
		return nil
	}
}

// heatText is the heat artifact's fmt.Stringer.
type heatText string

func (h heatText) String() string { return string(h) }

// runHeat renders the per-buffer heat map of one representative combination
// (the TX2 running shwfs) under every communication model — the
// observability companion to the paper tables: which buffers each model
// keeps hot, as ASCII heat bars.
func runHeat(scale catalog.Scale) (fmt.Stringer, error) {
	cfg, err := devices.ByName(devices.TX2Name)
	if err != nil {
		return nil, err
	}
	w, err := catalog.ByName("shwfs", scale)
	if err != nil {
		return nil, err
	}
	s := soc.New(cfg)
	s.EnableHeat()
	models := comm.AllModels()
	exp, err := framework.Explore(s, w, models)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	for _, m := range models {
		c, _ := exp.Candidate(m.Name())
		fmt.Fprintf(&b, "%s / %s / %s\n", cfg.Name, w.Name, m.Name())
		b.WriteString(heatmap.Render(c.Report.BufferHeat))
		b.WriteByte('\n')
	}
	return heatText(strings.TrimRight(b.String(), "\n")), nil
}
