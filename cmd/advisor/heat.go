package main

import (
	"fmt"
	"io"

	"igpucomm/internal/framework"
	"igpucomm/internal/telemetry"
)

// writeHeatArtifact writes the per-buffer heat artifact as schema-versioned
// JSON to path.
func writeHeatArtifact(out io.Writer, path string, art framework.HeatArtifact) error {
	err := createWith(path, func(w io.Writer) error { return framework.SaveHeatArtifact(w, art) })
	if err != nil {
		return err
	}
	buffers := 0
	for _, e := range art.Entries {
		buffers += len(e.Buffers)
	}
	fmt.Fprintf(out, "heat map written to %s (%d entries, %d buffer rows)\n",
		path, len(art.Entries), buffers)
	return nil
}

// emitHeatCounters records each heat entry as a Chrome counter sample — one
// counter track per device/app/model point, buffer heat scores as its series
// — so `-trace` with `-heatmap` renders heat next to the span timeline.
// No-ops without a tracer.
func emitHeatCounters(tracer *telemetry.Tracer, entries []framework.HeatEntry) {
	for _, e := range entries {
		values := make([]telemetry.CounterValue, 0, len(e.Buffers))
		for _, b := range e.Buffers {
			values = append(values, telemetry.CounterValue{Series: b.Name, Value: b.HeatScore})
		}
		tracer.Counter(fmt.Sprintf("heat %s/%s/%s", e.Platform, e.Workload, e.Model), values...)
	}
}
