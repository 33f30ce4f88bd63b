package dst

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/devices"
	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
	"igpucomm/internal/microbench"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/simnet"
	"igpucomm/internal/units"
)

// Injectable bugs the acceptance suite plants to prove the harness catches
// them. Production code paths contain none of these; the bug lives in the
// runner's handoff plumbing.
const (
	// BugAckBeforeInstall makes the warm-handoff pull acknowledge every
	// third entry without installing it — the classic
	// acked-before-durable-write bug the no-acked-entry-lost invariant
	// exists to catch.
	BugAckBeforeInstall = "ack-before-install"
)

// Options configures one DST run.
type Options struct {
	// Seed selects the failure schedule and every derived random stream.
	Seed int64
	// Shards is the fleet size (0: 3).
	Shards int
	// Steps is the number of workload steps (0: 8).
	Steps int
	// Schedule overrides the generated schedule (shrinking replays edited
	// schedules; nil: Generate(Seed, Shards, Steps)).
	Schedule *Schedule
	// Bug plants a deliberate defect (see the Bug* consts; "": none).
	Bug string
	// Trace receives per-step trace lines (nil: silent).
	Trace io.Writer
	// Parallel declares that other Runs execute concurrently in this
	// process. Each run stays individually deterministic (its virtual
	// clock is driven only by its own call stack), but the process-global
	// goroutine-leak invariant is skipped — the count would see the other
	// runs' transient goroutines.
	Parallel bool
}

func (o *Options) applyDefaults() {
	if o.Shards <= 0 {
		o.Shards = 3
	}
	if o.Steps <= 0 {
		o.Steps = 8
	}
}

// Violation is one invariant failure, anchored to the step that exposed it.
type Violation struct {
	Step      int    `json:"step"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d: invariant %q: %s", v.Step, v.Invariant, v.Detail)
}

// Report is one run's outcome.
type Report struct {
	Seed       int64       `json:"seed"`
	Schedule   Schedule    `json:"schedule"`
	Violations []Violation `json:"violations,omitempty"`
	// Calls, CallErrors and Degraded count advisory calls issued, calls
	// that failed after retries, and degraded results accepted.
	Calls      int `json:"calls"`
	CallErrors int `json:"call_errors"`
	Degraded   int `json:"degraded"`
	// VirtualElapsed is how much virtual time the run consumed; wall time
	// is orders of magnitude smaller.
	VirtualElapsed time.Duration `json:"virtual_elapsed"`
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// reference is the fault-free ground truth, computed once per process: the
// device characterizations shards warm-start with and the byte-exact
// advice a healthy fleet returns for each workload question. Advice is a
// pure function of (device, params, app), so one computation serves every
// seed.
type reference struct {
	params microbench.Params
	chars  map[string]charEntry // by device name
	advice map[string][]byte    // canonical AdviseResult JSON, by device name
	// synthetic is extra cache freight — entries that exist only to give
	// warm handoff something to move, so the acked-entry invariant has
	// real traffic to audit. Each carries its own synthetic platform
	// name, so ownership spreads the entries across the ring.
	synthetic map[string]framework.Characterization
}

type charEntry struct {
	key  string
	char framework.Characterization
}

var (
	refOnce sync.Once
	refVal  *reference
	refErr  error
)

func loadReference() (*reference, error) {
	refOnce.Do(func() {
		params := microbench.TestParams()
		eng := engine.New(engine.Options{Workers: 2, Clock: simnet.NewSim().AutoAdvance(true)})
		ref := &reference{
			params:    params,
			chars:     make(map[string]charEntry),
			advice:    make(map[string][]byte),
			synthetic: make(map[string]framework.Characterization),
		}
		for i := 0; i < syntheticEntries; i++ {
			// Shaped like a real characterization so the handoff wire's
			// persist-format validation accepts it.
			ref.synthetic[fmt.Sprintf("dst-syn-%03d", i)] = framework.Characterization{
				Platform:            fmt.Sprintf("synthetic-%03d", i),
				Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
				PeakGPUThroughput:   100 * units.GBps,
				PinnedGPUThroughput: 10 * units.GBps,
				ZCSCMaxSpeedup:      10,
				SCZCMaxSpeedup:      2.5,
			}
		}
		//igpulint:ignore ctxflow the reference build is a run's root; there is no caller context to thread
		ctx := context.Background()
		for _, cfg := range devices.All() {
			rec, err := eng.Advise(ctx, engine.Request{
				Config: cfg, Params: params, App: dstApp, Scale: catalog.Micro, Current: "sc",
			})
			if err != nil {
				refErr = err
				return
			}
			res := advisord.AdviseResult{Recommendation: &rec, Zone: rec.Zone.String()}
			data, err := json.Marshal(res)
			if err != nil {
				refErr = err
				return
			}
			ref.advice[cfg.Name] = data
		}
		// Answering each device characterized it: the engine's cache holds
		// one entry per device, under its content-hash key.
		for key, char := range eng.CacheExport() {
			ref.chars[char.Platform] = charEntry{key: key, char: char}
		}
		refVal = ref
	})
	return refVal, refErr
}

// dstApp is the catalog workload every advisory question asks about.
const dstApp = "shwfs"

// syntheticEntries is how much synthetic cache freight every shard carries
// for handoff to move.
const syntheticEntries = 30

// shard is one simulated advisord replica.
type shard struct {
	idx  int
	id   string
	host string
	st   *fleet.State
	eng  *engine.Engine
	down bool
	// acked tracks handoff entries this shard acknowledged; the
	// no-acked-entry-lost invariant holds the cache to it. Cleared on
	// crash — a dead shard owes nothing.
	acked map[string]bool
}

// runner is one run's live state.
type runner struct {
	opt     Options
	sched   Schedule
	sim     *simnet.Sim
	nw      *simnet.Network
	ref     *reference
	members []fleet.Shard
	shards  []*shard
	router  *fleet.Router
	cl      *client.Client
	rep     *Report

	// slept accumulates the client's virtual backoff per call, for the
	// retry-budget invariant.
	slept time.Duration
	// budget is the client's configured per-retry-sequence budget.
	budget time.Duration
	// lastRouterVersion and lastShardVersion feed the
	// topology-monotonic invariant.
	lastRouterVersion int64
	lastShardVersion  []int64
	// handoffSeq drives the deterministic ack-before-install bug.
	handoffSeq int
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// Run executes one full DST scenario in virtual time and returns its
// report. The scenario is strictly sequential — one workload call at a
// time, handlers inline on the caller's goroutine, the virtual clock driven
// by whoever sleeps — which is what makes the run a pure function of
// (Options, Schedule).
func Run(opt Options) (*Report, error) {
	opt.applyDefaults()
	ref, err := loadReference()
	if err != nil {
		return nil, fmt.Errorf("dst: reference: %w", err)
	}
	sched := Generate(opt.Seed, opt.Shards, opt.Steps)
	if opt.Schedule != nil {
		sched = *opt.Schedule
	}
	// The injected faults plan is process-global; a schedule that touches
	// it runs exclusively, everyone else shares. Exclusive runs also clean
	// up after themselves so no plan leaks into the next run.
	if usesFaultPlan(sched) {
		faultPlanMu.Lock()
		defer faultPlanMu.Unlock()
		defer faults.Deactivate()
	} else {
		faultPlanMu.RLock()
		defer faultPlanMu.RUnlock()
	}

	goroutinesBefore := runtime.NumGoroutine()

	r := &runner{
		opt:   opt,
		sched: sched,
		sim:   simnet.NewSim().AutoAdvance(true),
		ref:   ref,
		rep:   &Report{Seed: opt.Seed, Schedule: sched},
	}
	r.nw = simnet.NewNetwork(r.sim, opt.Seed)
	start := r.sim.Now()

	for i := 0; i < opt.Shards; i++ {
		r.members = append(r.members, fleet.Shard{ID: idOf(i), URL: "http://" + hostOf(i)})
	}
	for i := 0; i < opt.Shards; i++ {
		sh, err := r.bootShard(i, true)
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, sh)
	}
	r.lastShardVersion = make([]int64, opt.Shards)

	r.router, err = fleet.NewRouter(fleet.RouterOptions{
		Shards:           r.members,
		FailureThreshold: 2,
		Cooldown:         2 * time.Second,
		Clock:            r.sim,
	})
	if err != nil {
		return nil, err
	}
	r.budget = 2 * time.Second
	r.cl = client.New(client.Options{
		HTTPClient:         r.nw.Client("client"),
		Fleet:              r.router,
		Clock:              r.sim,
		Sleep:              r.countingSleep,
		MaxAttempts:        4,
		BaseDelay:          20 * time.Millisecond,
		MaxDelay:           250 * time.Millisecond,
		Budget:             r.budget,
		Seed:               opt.Seed ^ 0x6a5d,
		RefreshMinInterval: 500 * time.Millisecond,
	})

	devs := devices.All()
	evIdx := 0
	for step := 0; step < opt.Steps; step++ {
		for evIdx < len(sched.Events) && sched.Events[evIdx].Step <= step {
			r.applyEvent(step, sched.Events[evIdx])
			evIdx++
		}
		dev := devs[step%len(devs)].Name
		r.workloadStep(step, dev)
		r.checkTopologyMonotonic(step)
		r.checkAckedEntries(step)
	}

	r.rep.VirtualElapsed = r.sim.Since(start)
	if !opt.Parallel {
		r.checkGoroutines(goroutinesBefore)
	}
	return r.rep, nil
}

// faultPlanMu serializes runs that touch the process-global faults plan
// against everything else; fault-free runs share it and may execute in
// parallel.
var faultPlanMu sync.RWMutex

// usesFaultPlan reports whether a schedule activates the global fault
// injector.
func usesFaultPlan(sched Schedule) bool {
	for _, ev := range sched.Events {
		if ev.Kind == EvFault || ev.Kind == EvFaultHeal {
			return true
		}
	}
	return false
}

// countingSleep is the client's backoff sleep: virtual, and accounted
// toward the retry-budget invariant.
func (r *runner) countingSleep(ctx context.Context, d time.Duration) error {
	r.slept += d
	return r.sim.Sleep(ctx, d)
}

func (r *runner) tracef(format string, args ...interface{}) {
	if r.opt.Trace != nil {
		fmt.Fprintf(r.opt.Trace, format+"\n", args...)
	}
}

func (r *runner) violate(step int, invariant, format string, args ...interface{}) {
	v := Violation{Step: step, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	r.rep.Violations = append(r.rep.Violations, v)
	r.tracef("VIOLATION %s", v)
}

// bootShard builds shard i: fleet state over the full membership, an
// engine warm-started with the device characterizations (as a disk
// warm start would), and an advisord server registered on the network.
// withFreight additionally seeds the synthetic handoff cargo — true at
// fleet bringup, false on restart, so a restarted shard has lost exactly
// the entries a warm handoff exists to restore.
func (r *runner) bootShard(i int, withFreight bool) (*shard, error) {
	st, err := fleet.NewState(idOf(i), r.members, 0)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{
		Workers:      2,
		CacheEntries: 4096,
		Clock:        r.sim,
	})
	for _, ce := range r.ref.chars {
		eng.CachePut(ce.key, ce.char)
	}
	if withFreight {
		// A shard's synthetic freight is the entries it does NOT own —
		// remote platforms accumulated by serving rerouted traffic. Its owned
		// entries live on its peers until a warm handoff pulls them home,
		// which is exactly the install path the acked-entry invariant
		// audits.
		for key, char := range r.ref.synthetic {
			if !st.Owns(char.Platform) {
				eng.CachePut(key, char)
			}
		}
	}
	srv := advisord.New(eng, advisord.Options{
		Params:           r.ref.params,
		Scale:            catalog.Micro,
		Logger:           quietLogger(),
		RequestTimeout:   5 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  5 * time.Second,
		Clock:            r.sim,
		Fleet:            st,
	})
	sh := &shard{idx: i, id: idOf(i), host: hostOf(i), st: st, eng: eng, acked: make(map[string]bool)}
	r.nw.Register(sh.host, srv.Handler())
	return sh, nil
}

// applyEvent mutates the simulated world per one schedule event.
func (r *runner) applyEvent(step int, ev Event) {
	r.tracef("apply %s", ev)
	sh := r.shards[ev.Shard%len(r.shards)]
	switch ev.Kind {
	case EvCrash:
		r.nw.SetDown(sh.host, true)
		sh.down = true
		// A dead shard's cache — and with it every handoff ack — is gone.
		sh.acked = make(map[string]bool)
	case EvRestart:
		if !sh.down {
			return
		}
		fresh, err := r.bootShard(sh.idx, false)
		if err != nil {
			r.violate(step, "restart", "reboot %s: %v", sh.id, err)
			return
		}
		*sh = *fresh
		r.nw.SetDown(sh.host, false)
	case EvPartition:
		r.nw.SetCut(ev.From, ev.To, true)
	case EvHeal:
		for _, a := range r.endpoints() {
			for _, b := range r.endpoints() {
				r.nw.SetCut(a, b, false)
				r.nw.SetLinkFault(a, b, simnet.LinkFault{})
			}
		}
		r.nw.SetLinkFault("*", "*", simnet.LinkFault{})
	case EvLink:
		r.nw.SetLinkFault(ev.From, ev.To, simnet.LinkFault{
			DropProb:     ev.Drop,
			RespLossProb: ev.RespLoss,
			DupProb:      ev.Dup,
			Delay:        ev.Delay,
		})
	case EvDrain:
		sh.st.SetDraining(true)
	case EvUndrain:
		sh.st.SetDraining(false)
	case EvHandoff:
		r.handoff(step, sh)
	case EvFault:
		_ = faults.Activate(faults.NewPlan(r.opt.Seed,
			faults.Rule{Point: "advisord.fleet.export", Mode: faults.ModeError, Every: 2}))
	case EvFaultHeal:
		faults.Deactivate()
	}
}

// endpoints lists every network endpoint name, for EvHeal.
func (r *runner) endpoints() []string {
	out := []string{"client", "*"}
	for i := range r.shards {
		out = append(out, hostOf(i))
	}
	return out
}

// handoff warm-pulls the entries sh owns from its peers, recording every
// acknowledged key — and, under BugAckBeforeInstall, dropping every third
// install while still acknowledging it.
func (r *runner) handoff(step int, sh *shard) {
	if sh.down {
		return
	}
	put := func(key string, char framework.Characterization) {
		r.handoffSeq++
		sh.acked[key] = true
		if r.opt.Bug == BugAckBeforeInstall && r.handoffSeq%3 == 0 {
			return // acked, never installed
		}
		sh.eng.CachePut(key, char)
	}
	//igpulint:ignore ctxflow the harness is the root of its virtual world; each handoff gets a fresh root under the simulated clock
	ctx, cancel := r.sim.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := fleet.Pull(ctx, sh.st, r.nw.Client(sh.host), put)
	if err != nil {
		r.violate(step, "handoff", "pull on %s: %v", sh.id, err)
		return
	}
	r.tracef("handoff %s: pulled=%d quarantined=%d peer_errors=%v",
		sh.id, rep.Pulled, rep.Quarantined, rep.PeerErrors)
}

// workloadStep issues one advisory question and checks the per-response
// invariants: every result is complete advice or a typed error, and
// non-degraded advice is byte-identical to the fault-free reference.
func (r *runner) workloadStep(step int, device string) {
	r.slept = 0
	r.rep.Calls++
	//igpulint:ignore ctxflow the harness is the root of its virtual world; each step gets a fresh root under the simulated clock
	ctx, cancel := r.sim.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := r.cl.Advise(ctx, advisord.AdviseBody{Requests: []advisord.AdviseRequest{
		{Device: device, App: dstApp, Current: "sc"},
	}})
	if r.slept > r.budget {
		r.violate(step, "retry-budget", "client slept %s of a %s budget", r.slept, r.budget)
	}
	if err != nil {
		// A fleet that cannot answer fails loudly — acceptable under
		// faults, as long as the failure is an error, not bad advice.
		r.rep.CallErrors++
		r.tracef("step %d %s: call error: %v", step, device, err)
		return
	}
	if len(resp.Results) != 1 {
		r.violate(step, "response-shape", "%d results for 1 request", len(resp.Results))
		return
	}
	res := resp.Results[0]
	if verr := res.Check(); verr != nil {
		r.violate(step, "typed-result", "device %s: %v", device, verr)
		return
	}
	if res.Error != "" {
		r.tracef("step %d %s: typed error %s (%s)", step, device, res.Error, res.ErrorKind)
		return
	}
	if res.Degraded {
		r.rep.Degraded++
		r.tracef("step %d %s: degraded: %s", step, device, res.DegradedReason)
		return
	}
	got, merr := json.Marshal(res)
	if merr != nil {
		r.violate(step, "advice-identity", "marshal result: %v", merr)
		return
	}
	want := r.ref.advice[device]
	if string(got) != string(want) {
		r.violate(step, "advice-identity",
			"device %s advice diverged from fault-free run:\n got %s\nwant %s", device, got, want)
	}
}

// checkTopologyMonotonic asserts router and shard topology versions never
// move backwards.
func (r *runner) checkTopologyMonotonic(step int) {
	if v := r.router.Version(); v < r.lastRouterVersion {
		r.violate(step, "topology-monotonic", "router version %d < %d", v, r.lastRouterVersion)
	} else {
		r.lastRouterVersion = v
	}
	for i, sh := range r.shards {
		if sh.down {
			continue
		}
		if v := sh.st.Version(); v < r.lastShardVersion[i] {
			r.violate(step, "topology-monotonic", "%s version %d < %d", sh.id, v, r.lastShardVersion[i])
		} else {
			r.lastShardVersion[i] = v
		}
	}
}

// checkAckedEntries asserts no acknowledged handoff entry is missing from
// its shard's cache — the durable-write side of the handoff contract.
func (r *runner) checkAckedEntries(step int) {
	for _, sh := range r.shards {
		if sh.down || len(sh.acked) == 0 {
			continue
		}
		have := sh.eng.CacheExport()
		keys := make([]string, 0, len(sh.acked))
		for key := range sh.acked {
			keys = append(keys, key)
		}
		sort.Strings(keys) // map order must not leak into violation order
		for _, key := range keys {
			if _, ok := have[key]; !ok {
				r.violate(step, "handoff-acked-entry-lost",
					"%s acknowledged %s but does not hold it", sh.id, key)
			}
		}
	}
}

// checkGoroutines asserts the scenario leaked no goroutines: everything in
// the simulation runs inline, so whatever was running before must be all
// that is running after (transient runtime goroutines get a brief real
// grace period to exit).
func (r *runner) checkGoroutines(before int) {
	const slack = 2
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		now := runtime.NumGoroutine()
		if now <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			r.violate(r.opt.Steps-1, "goroutine-leak",
				"%d goroutines before the run, %d after", before, now)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
