package dst

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/advisord/client"
	"igpucomm/internal/apps/catalog"
	"igpucomm/internal/comm"
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
// them. Production code paths contain none of these; each bug lives in the
// runner's own plumbing.
const (
	// BugAckBeforeInstall makes the warm-handoff pull acknowledge every
	// third entry without installing it — the classic
	// acked-before-durable-write bug the no-acked-entry-lost invariant
	// exists to catch.
	BugAckBeforeInstall = "ack-before-install"
	// BugSkipQuarantine makes a restart decode its cache directory itself,
	// with no checksum, and install every entry even when it fails to
	// decode — the warm-start bug the cache-integrity invariant exists to
	// catch.
	BugSkipQuarantine = "skip-quarantine"
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
// answer a healthy advisord gives each workload question — advice, or a
// typed error for a current model the framework does not accept. Answers
// are a pure function of the question, so one computation serves every
// seed.
type reference struct {
	params microbench.Params
	chars  map[string]framework.Characterization // device characterizations, by cache key
	// combos is the workload: every device x app x current-model question,
	// ordered so consecutive questions change device and model. advice
	// holds each one's canonical AdviseResult JSON.
	combos []advisord.AdviseRequest
	advice [][]byte
	// synthetic is extra cache freight — entries that exist only to give
	// warm handoff something to move, so the acked-entry invariant has
	// real traffic to audit. Each carries its own synthetic platform
	// name, so ownership spreads the entries across the ring.
	synthetic map[string]framework.Characterization
	// cacheFiles name the files an engine's store wrote to refCacheDir
	// for every device characterization and synthetic entry: the stock a
	// first boot's cache directory is linked from.
	cacheFiles []string
}

// refCacheDir is the reference engine's cache directory, made and removed
// by TestMain.
var refCacheDir string

var (
	refOnce sync.Once
	refVal  *reference
	refErr  error
)

func loadReference() (*reference, error) {
	refOnce.Do(func() { refVal, refErr = buildReference() })
	return refVal, refErr
}

func buildReference() (*reference, error) {
	ref := &reference{
		params:    microbench.TestParams(),
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
	// 3 devices and 5 models are coprime, so i%3 and i%5 visit every
	// device x model pair once per 15 questions; the app advances every 15.
	devs, apps, models := devices.All(), catalog.Names(), comm.AllModels()
	for i := 0; i < len(devs)*len(apps)*len(models); i++ {
		ref.combos = append(ref.combos, advisord.AdviseRequest{
			Device:  devs[i%len(devs)].Name,
			App:     apps[i/(len(devs)*len(models))],
			Current: models[i%len(models)].Name(),
		})
	}

	// One healthy advisord answers every question in one batch. Its engine
	// stores what it characterizes, and the synthetic freight put into it,
	// in refCacheDir.
	eng := engine.New(engine.Options{Workers: 2, Clock: simnet.NewSim().AutoAdvance(true), CacheDir: refCacheDir})
	srv := advisord.New(eng, advisord.Options{Params: ref.params, Scale: catalog.Micro, Logger: quietLogger()})
	body, err := json.Marshal(advisord.AdviseBody{Requests: ref.combos})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
	var resp advisord.AdviseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("reference answers (status %d): %w", rec.Code, err)
	}
	if len(resp.Results) != len(ref.combos) {
		return nil, fmt.Errorf("reference: %d answers for %d questions", len(resp.Results), len(ref.combos))
	}
	for i, res := range resp.Results {
		if res.Degraded {
			return nil, fmt.Errorf("reference answer to %+v is degraded: %s", ref.combos[i], res.DegradedReason)
		}
		data, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		ref.advice = append(ref.advice, data)
	}
	// Answering each device characterized it: the engine's cache holds
	// one entry per device, under its content-hash key.
	ref.chars = eng.CacheExport()
	for key, char := range ref.synthetic {
		eng.CachePut(key, char)
	}
	names, err := os.ReadDir(refCacheDir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		ref.cacheFiles = append(ref.cacheFiles, name.Name())
	}
	return ref, nil
}

// syntheticEntries is how much synthetic cache freight every shard carries
// for handoff to move.
const syntheticEntries = 30

// shard is one simulated advisord replica.
type shard struct {
	idx     int
	id      string
	host    string
	st      *fleet.State
	eng     *engine.Engine
	handler http.Handler
	down    bool
	// acked tracks handoff entries this shard acknowledged; the
	// no-acked-entry-lost invariant holds the cache to it. Cleared on
	// crash — a dead shard owes nothing.
	acked map[string]bool
	// verified holds the keys cache-integrity has checked since the
	// shard's boot or last handoff, the only event that replaces an entry.
	verified map[string]bool
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
	// dir holds each shard's cache directory, one per shard ID.
	dir    string
	router *fleet.Router
	cl     *client.Client
	rep    *Report

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
	sched := Generate(opt.Seed, opt.Shards, opt.Steps)
	if opt.Schedule != nil {
		sched = *opt.Schedule
	}
	// The injected faults plan is process-global; a schedule that touches
	// it runs exclusively, everyone else shares. Exclusive runs also clean
	// up after themselves so no plan leaks into the next run. Either way
	// no plan is active here, so the reference is built fault-free.
	if usesFaultPlan(sched) {
		faultPlanMu.Lock()
		defer faultPlanMu.Unlock()
		defer faults.Deactivate()
	} else {
		faultPlanMu.RLock()
		defer faultPlanMu.RUnlock()
	}
	ref, err := loadReference()
	if err != nil {
		return nil, fmt.Errorf("dst: reference: %w", err)
	}
	dir, err := os.MkdirTemp("", "dst-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	goroutinesBefore := runtime.NumGoroutine()

	r := &runner{
		opt:   opt,
		sched: sched,
		sim:   simnet.NewSim().AutoAdvance(true),
		ref:   ref,
		dir:   dir,
		rep:   &Report{Seed: opt.Seed, Schedule: sched},
	}
	r.nw = simnet.NewNetwork(r.sim, opt.Seed)
	start := r.sim.Now()

	for i := 0; i < opt.Shards; i++ {
		r.members = append(r.members, fleet.Shard{ID: idOf(i), URL: "http://" + hostOf(i)})
	}
	for i := 0; i < opt.Shards; i++ {
		sh, err := r.bootShard(i, false)
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

	evIdx := 0
	for step := 0; step < opt.Steps; step++ {
		for evIdx < len(sched.Events) && sched.Events[evIdx].Step <= step {
			r.applyEvent(step, sched.Events[evIdx])
			evIdx++
		}
		// A run rotates through three consecutive questions, one per
		// device, so later asks must serve the first answer again from
		// the advice memo or a reroute; seeds walk the whole list.
		r.workloadStep(step, int(3*opt.Seed+int64(step%3))%len(ref.combos))
		r.checkTopologyMonotonic(step)
		r.checkAckedEntries(step)
		r.checkCacheIntegrity(step)
	}
	r.checkHealth()

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
// engine, and an advisord server persisting to the shard's cache
// directory, registered on the network. A restart warm-starts from that
// directory alone, so a restarted shard has lost every entry it did not
// persist — in particular the ones a warm handoff exists to restore.
func (r *runner) bootShard(i int, restart bool) (*shard, error) {
	st, err := fleet.NewState(idOf(i), r.members, 0)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(r.dir, idOf(i))
	eng := engine.New(engine.Options{
		Workers:      2,
		CacheEntries: 4096,
		Clock:        r.sim,
		CacheDir:     dir,
	})
	if restart {
		err = r.warmStart(eng, dir)
	} else {
		err = r.bringUp(eng, st, dir)
	}
	if err != nil {
		return nil, err
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
	sh := &shard{idx: i, id: idOf(i), host: hostOf(i), st: st, eng: eng,
		handler: srv.Handler(), acked: make(map[string]bool), verified: make(map[string]bool)}
	r.nw.Register(sh.host, sh.handler)
	return sh, nil
}

// bringUp gives a first-boot shard the cache directory an earlier life
// would have left it — the stored characterizations of the devices it owns
// and synthetic freight for platforms it does NOT own — and warm-starts
// from it through LoadCache. Its owned freight lives on its peers until a
// warm handoff pulls it home, which is exactly the install path the
// acked-entry invariant audits. It holds no peer device's characterization:
// the first rerouted question for one characterizes it cold, and the engine
// stores it then. The files are hard links: the engine replaces a file by
// rename and never writes one in place, so no run changes the stock.
func (r *runner) bringUp(eng *engine.Engine, st *fleet.State, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range r.ref.cacheFiles {
		key, _, _ := strings.Cut(name, ".")
		char, device := r.ref.chars[key]
		if !device {
			char = r.ref.synthetic[key]
		}
		if st.Owns(char.Platform) != device {
			continue
		}
		if err := os.Link(filepath.Join(refCacheDir, name), filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	_, err := eng.LoadCache()
	return err
}

// warmStart loads a restarting shard's cache directory through LoadCache,
// which quarantines every entry that fails its checksum or decode. Under
// BugSkipQuarantine it reads the directory itself instead: the same
// fault-injected read, no checksum, and every entry installed, decodable
// or not.
func (r *runner) warmStart(eng *engine.Engine, dir string) error {
	if r.opt.Bug != BugSkipQuarantine {
		_, err := eng.LoadCache()
		return err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		data, _ = faults.FireData("engine.cache.load", data)
		char, _ := framework.LoadCharacterization(bytes.NewReader(data))
		eng.CachePut(strings.TrimSuffix(filepath.Base(name), ".json"), char)
	}
	return nil
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
		fresh, err := r.bootShard(sh.idx, true)
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
		p := planNamed(ev.Plan)
		if err := faults.Activate(faults.NewPlan(p.seed, p.rules...)); err != nil {
			r.violate(step, "fault-plan", "activate %s: %v", p.name, err)
		}
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
	sh.verified = make(map[string]bool)
	put := func(key string, char framework.Characterization) {
		r.handoffSeq++
		sh.acked[key] = true
		if r.opt.Bug == BugAckBeforeInstall && r.handoffSeq%3 == 0 {
			return // acked, never installed
		}
		sh.eng.CachePut(key, char)
	}
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

// workloadStep issues workload question q and checks the per-call
// invariants: a failed call fails with a typed error, every result is
// complete advice or a typed error, and every non-degraded result is
// byte-identical to the fault-free reference.
func (r *runner) workloadStep(step, q int) {
	ar := r.ref.combos[q]
	r.slept = 0
	r.rep.Calls++
	ctx, cancel := r.sim.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := r.cl.Advise(ctx, advisord.AdviseBody{Requests: []advisord.AdviseRequest{ar}})
	if r.slept > r.budget {
		r.violate(step, "retry-budget", "client slept %s of a %s budget", r.slept, r.budget)
	}
	if err != nil {
		// A fleet that cannot answer fails loudly — acceptable under
		// faults, as long as the failure is an HTTP-level APIError, an
		// exhausted retry budget or the network refusing the call.
		r.rep.CallErrors++
		r.tracef("step %d %+v: call error: %v", step, ar, err)
		var apiErr *client.APIError
		var netErr *url.Error
		if !errors.As(err, &apiErr) && !errors.Is(err, client.ErrBudgetExhausted) && !errors.As(err, &netErr) {
			r.violate(step, "typed-call-error", "%+v: untyped client error: %v", ar, err)
		}
		return
	}
	if len(resp.Results) != 1 {
		r.violate(step, "response-shape", "%d results for 1 request", len(resp.Results))
		return
	}
	res := resp.Results[0]
	if verr := res.Check(); verr != nil {
		r.violate(step, "typed-result", "%+v: %v", ar, verr)
		return
	}
	if res.Degraded {
		r.rep.Degraded++
		r.tracef("step %d %+v: degraded: %s", step, ar, res.DegradedReason)
		return
	}
	got, merr := json.Marshal(res)
	if merr != nil {
		r.violate(step, "advice-identity", "marshal result: %v", merr)
		return
	}
	if want := r.ref.advice[q]; !bytes.Equal(got, want) {
		r.violate(step, "advice-identity",
			"%+v answer diverged from fault-free run:\n got %s\nwant %s", ar, got, want)
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

// checkCacheIntegrity asserts every entry a live shard holds equals its
// reference characterization or its synthetic original: whatever a fault
// did to a cache file on its way in, no shard serves it.
func (r *runner) checkCacheIntegrity(step int) {
	for _, sh := range r.shards {
		if sh.down {
			continue
		}
		have := sh.eng.CacheExport()
		keys := make([]string, 0, len(have))
		for key := range have {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if sh.verified[key] {
				continue
			}
			sh.verified[key] = true
			want, ok := r.ref.chars[key]
			if !ok {
				want, ok = r.ref.synthetic[key]
			}
			if !ok || !reflect.DeepEqual(have[key], want) {
				r.violate(step, "cache-integrity", "%s holds entry %s unlike any reference entry", sh.id, key)
			}
		}
	}
}

// checkHealth asserts every live shard still answers /healthz and /metrics
// once the run is over: no fault took a process down or broke its scrape.
func (r *runner) checkHealth() {
	for _, sh := range r.shards {
		if sh.down {
			continue
		}
		for _, path := range []string{"/healthz", "/metrics"} {
			rec := httptest.NewRecorder()
			sh.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				r.violate(r.opt.Steps-1, "health", "%s: GET %s = %d", sh.id, path, rec.Code)
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
