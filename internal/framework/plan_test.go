package framework

import (
	"context"
	"reflect"
	"testing"

	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
	"igpucomm/internal/devices"
	"igpucomm/internal/microbench"
	"igpucomm/internal/soc"
	"igpucomm/internal/telemetry"
)

// stageRecorder is a serial Runner on s that records, per stage, the first
// span each job opens (name plus the attribute at attr) — the way
// microbench.TestCharacterizeStages identifies jobs.
func stageRecorder(s *soc.SoC, tr *telemetry.Tracer, attr int, stages *[][]string) microbench.Runner {
	return func(ctx context.Context, jobs []microbench.Job) error {
		var names []string
		for _, job := range jobs {
			first := tr.Len()
			if err := job(ctx, s); err != nil {
				return err
			}
			sp := tr.Spans()[first]
			names = append(names, sp.Name+" "+sp.Attrs()[attr].Value)
		}
		*stages = append(*stages, names)
		return nil
	}
}

// TestProfilePlanStages pins the profiling plan's work: one stage whose
// job 0 is the SC classification profile, plus a current-model job when
// the current model is not SC.
func TestProfilePlanStages(t *testing.T) {
	w, err := catalog.ByName("shwfs", catalog.Micro)
	if err != nil {
		t.Fatal(err)
	}
	for current, want := range map[string][][]string{
		"sc": {{"profile.collect sc"}},
		"um": {{"profile.collect sc", "profile.collect um"}},
		"zc": {{"profile.collect sc", "profile.collect zc"}},
	} {
		t.Run(current, func(t *testing.T) {
			tr := telemetry.NewTracer(telemetry.TracerOptions{})
			ctx := telemetry.WithTracer(context.Background(), tr)
			var stages [][]string
			classify, cur, err := profilePlan(ctx, w, current, stageRecorder(soc.New(devices.TX2()), tr, 1, &stages))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stages, want) {
				t.Errorf("stages = %q\nwant     %q", stages, want)
			}
			if classify.Model != "sc" || cur.Model != current {
				t.Errorf("profiles under %s/%s, want sc/%s", classify.Model, cur.Model, current)
			}
		})
	}
}

// TestExplorePlanStages pins the exploration plan's work: one stage of one
// job per model, in model order, whatever order the ranking ends up in.
func TestExplorePlanStages(t *testing.T) {
	w, err := catalog.ByName("shwfs", catalog.Micro)
	if err != nil {
		t.Fatal(err)
	}
	s := soc.New(devices.TX2())
	tr := telemetry.NewTracer(telemetry.TracerOptions{})
	ctx := telemetry.WithTracer(context.Background(), tr)
	var stages [][]string
	models := comm.AllModels()
	exp, err := ExploreOn(ctx, s.Name(), w, models, stageRecorder(s, tr, 0, &stages))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range models {
		want = append(want, "engine.explore.model "+m.Name())
	}
	if !reflect.DeepEqual(stages, [][]string{want}) {
		t.Errorf("stages = %q\nwant     %q", stages, [][]string{want})
	}
	if len(exp.Ranked) != len(models) || exp.Platform != s.Name() || exp.Workload != w.Name {
		t.Errorf("exploration = %+v", exp)
	}
	if _, err := ExploreOn(ctx, s.Name(), w, []comm.Model{}, microbench.Serial(s)); err == nil {
		t.Error("exploring no models succeeded")
	}
}
