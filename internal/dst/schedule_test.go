// Package dst is the deterministic simulation test (DST) harness over the
// advisord fleet, and the repository's one harness for seeded fault
// schedules: it boots N in-process shards plus a routing client on a
// virtual clock (internal/simnet), runs an advisory workload entirely in
// virtual time under a seeded schedule of failures — link drops, delays,
// duplicates, one-way response losses, partitions, shard crash/restart
// from disk, drain, warm handoff, named internal/faults plans — and checks
// global invariants after every step. A failing seed is shrunk
// automatically to a minimal schedule and emitted as a repro artifact with
// a replay command, so a CI failure is reproducible from its log line
// alone. The package is test-only: nothing outside it imports it.
package dst

import (
	"fmt"
	"math/rand"
	"time"

	"igpucomm/internal/faults"
)

// Event kinds a schedule can contain.
const (
	// EvCrash kills a shard: its handler unregisters from the network and
	// its cache (and acked-handoff bookkeeping) is forgotten.
	EvCrash = "crash"
	// EvRestart reboots a crashed shard with a fresh engine, warm-started
	// by LoadCache from the shard's cache directory, without any handoff
	// freight.
	EvRestart = "restart"
	// EvPartition cuts the directed link From -> To.
	EvPartition = "partition"
	// EvHeal clears every partition and every link fault.
	EvHeal = "heal"
	// EvLink installs a probabilistic fault profile on the directed link
	// From -> To: request drops, response losses (one-way link),
	// duplicates, added virtual latency.
	EvLink = "link"
	// EvDrain sets a shard draining (503 + Retry-After on /v1 traffic);
	// EvUndrain clears it.
	EvDrain   = "drain"
	EvUndrain = "undrain"
	// EvHandoff warm-pulls the entries a shard owns from its peers — the
	// operation the no-acked-entry-lost invariant audits.
	EvHandoff = "handoff"
	// EvFault activates the named fault plan Event.Plan (see faultPlans);
	// EvFaultHeal deactivates it.
	EvFault     = "fault"
	EvFaultHeal = "fault-heal"
)

// Event is one scheduled failure. Step indexes the workload step before
// which the event applies.
type Event struct {
	Step int    `json:"step"`
	Kind string `json:"kind"`
	// Shard is the target shard index for crash/restart/drain/undrain/
	// handoff events.
	Shard int `json:"shard,omitempty"`
	// From and To name link endpoints for partition/link events: "client"
	// or a shard host.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Link fault knobs (EvLink).
	Drop     float64       `json:"drop,omitempty"`
	RespLoss float64       `json:"resp_loss,omitempty"`
	Dup      float64       `json:"dup,omitempty"`
	Delay    time.Duration `json:"delay,omitempty"`
	// Plan names the fault plan an EvFault activates.
	Plan string `json:"plan,omitempty"`
}

// String renders the event for trace logs.
func (e Event) String() string {
	switch e.Kind {
	case EvPartition, EvLink:
		return fmt.Sprintf("step %d: %s %s->%s drop=%.2f loss=%.2f dup=%.2f delay=%s",
			e.Step, e.Kind, e.From, e.To, e.Drop, e.RespLoss, e.Dup, e.Delay)
	case EvFault:
		return fmt.Sprintf("step %d: %s plan=%s", e.Step, e.Kind, e.Plan)
	default:
		return fmt.Sprintf("step %d: %s shard=%d", e.Step, e.Kind, e.Shard)
	}
}

// Schedule is a seeded failure schedule: the full input of one DST run
// (alongside the runner options), and the unit shrinking minimizes.
type Schedule struct {
	Seed   int64   `json:"seed"`
	Shards int     `json:"shards"`
	Steps  int     `json:"steps"`
	Events []Event `json:"events"`
}

// Generate derives the failure schedule for a seed: a handful of events at
// random steps, kinds weighted so churn (links, handoffs, crashes) is
// common and permanent outages are possible but rare. Pure function of its
// arguments.
func Generate(seed int64, shards, steps int) Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed, Shards: shards, Steps: steps}
	n := 2 + rng.Intn(5)
	endpoint := func() string {
		if rng.Intn(3) == 0 {
			return "client"
		}
		return hostOf(rng.Intn(shards))
	}
	for i := 0; i < n; i++ {
		ev := Event{Step: rng.Intn(steps), Shard: rng.Intn(shards)}
		switch w := rng.Intn(100); {
		case w < 25:
			ev.Kind = EvLink
			ev.From, ev.To = endpoint(), endpoint()
			// One knob per fault keeps shrunk schedules readable.
			switch rng.Intn(4) {
			case 0:
				ev.Drop = 0.3 + 0.6*rng.Float64()
			case 1:
				ev.RespLoss = 0.3 + 0.6*rng.Float64()
			case 2:
				ev.Dup = 0.5 + 0.5*rng.Float64()
			case 3:
				ev.Delay = time.Duration(1+rng.Intn(200)) * time.Millisecond
			}
		case w < 37:
			ev.Kind = EvPartition
			ev.From, ev.To = endpoint(), endpoint()
		case w < 47:
			ev.Kind = EvHeal
		case w < 57:
			ev.Kind = EvCrash
		case w < 67:
			ev.Kind = EvRestart
		case w < 74:
			ev.Kind = EvDrain
		case w < 80:
			ev.Kind = EvUndrain
		case w < 93:
			ev.Kind = EvHandoff
		case w < 97:
			ev.Kind = EvFault
			ev.Plan = faultPlans[w-93].name
		default:
			ev.Kind = EvFaultHeal
		}
		sched.Events = append(sched.Events, ev)
	}
	sortEvents(sched.Events)
	return sched
}

// faultPlan is one named internal/faults plan an EvFault activates.
type faultPlan struct {
	name  string
	seed  int64
	rules []faults.Rule
}

// faultPlans is the fixed plan table, one entry per Generate weight slot.
// Every rule aims at a point the DST workload reaches; TestFaultPlansFire
// holds each plan to firing every rule on one fixed schedule, so points
// that schedule hits only a few times (cache reads, fresh platforms, cold
// characterizations) fire on an Every count, not a probability.
// engine.explore is in none: /v1/advise never explores.
//
// corrupt-persistence fails every store: engine.cache.store fails every
// second one, and framework.persist.save fails each of the rest. A shard's
// engine stores each entry on its own as it enters the memo, and a run is
// one step at a time, so whichever stores fail, the cache directory's
// contents stay a pure function of the schedule.
var faultPlans = []faultPlan{
	{name: "fleet-export", seed: 404, rules: []faults.Rule{
		{Point: "advisord.fleet.export", Mode: faults.ModeError, Every: 2},
	}},
	{name: "flaky-engine", seed: 101, rules: []faults.Rule{
		{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.3},
		{Point: "profile.collect", Mode: faults.ModeError, Prob: 0.2},
	}},
	{name: "slow-and-panicky", seed: 202, rules: []faults.Rule{
		{Point: "engine.characterize", Mode: faults.ModePanic, Every: 2},
		{Point: "profile.collect", Mode: faults.ModePanic, Prob: 0.1},
		{Point: "soc.clone", Mode: faults.ModeLatency, Every: 4, Delay: 2 * time.Millisecond},
		{Point: "engine.characterize", Mode: faults.ModeLatency, Every: 1, Delay: 5 * time.Millisecond},
	}},
	{name: "corrupt-persistence", seed: 303, rules: []faults.Rule{
		{Point: "engine.cache.load", Mode: faults.ModeCorrupt, Every: 2},
		{Point: "engine.cache.store", Mode: faults.ModeError, Every: 2},
		{Point: "framework.persist.save", Mode: faults.ModeError, Every: 1},
		{Point: "engine.characterize", Mode: faults.ModeError, Prob: 0.2},
	}},
}

// planNamed returns the fault plan with the given name (no rules when the
// name is unknown).
func planNamed(name string) faultPlan {
	for _, p := range faultPlans {
		if p.name == name {
			return p
		}
	}
	return faultPlan{name: name}
}

// sortEvents orders events by step, stably, so application order is the
// generation order within a step.
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Step < evs[j-1].Step; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// hostOf is shard i's simnet host name.
func hostOf(i int) string { return fmt.Sprintf("shard-%d.sim", i) }

// idOf is shard i's fleet ID.
func idOf(i int) string { return fmt.Sprintf("shard-%d", i) }
