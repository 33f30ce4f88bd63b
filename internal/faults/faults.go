// Package faults is the repo's deterministic fault-injection layer: named
// fault points compiled into the production code paths (cache load/store,
// platform cloning, characterization, profiling, trace parsing, persistence)
// that stay inert — one atomic load, no allocation — until a seeded Plan is
// activated. A plan maps points to rules (error returns, latency spikes,
// corrupted or truncated bytes, panics) with deterministic or probabilistic
// schedules, so every failure mode the fault plans assert against is
// reproducible from a seed.
//
// Activation is process-global by design: the fault plans exercise the whole
// advisord stack (HTTP surface, engine fan-out, cache persistence) and the
// fault points live many layers below where a plan could be threaded through.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mode is the kind of failure a rule injects.
type Mode int

// Fault modes.
const (
	// ModeError makes the point return a typed *Error.
	ModeError Mode = iota
	// ModeLatency makes the point sleep for the rule's Delay before
	// proceeding normally.
	ModeLatency
	// ModeCorrupt flips bytes in the data passing through the point
	// (FireData points only). The corruption is silent: downstream
	// validation must catch it.
	ModeCorrupt
	// ModeTruncate drops a suffix of the data passing through the point
	// (FireData points only), simulating a partial write or torn read.
	ModeTruncate
	// ModePanic makes the point panic with a *PanicValue.
	ModePanic
)

// String names the mode for logs and error messages.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModeCorrupt:
		return "corrupt"
	case ModeTruncate:
		return "truncate"
	case ModePanic:
		return "panic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Cap is the bitmask of modes a registered fault point supports; Activate
// rejects plans that pair a point with a mode it cannot express.
type Cap uint8

// Capability bits.
const (
	// CanError marks points that can return an injected error.
	CanError Cap = 1 << iota
	// CanLatency marks points that can absorb an injected delay.
	CanLatency
	// CanCorrupt marks data points whose bytes can be corrupted.
	CanCorrupt
	// CanTruncate marks data points whose bytes can be truncated.
	CanTruncate
	// CanPanic marks points that can panic.
	CanPanic
)

func (c Cap) has(m Mode) bool {
	switch m {
	case ModeError:
		return c&CanError != 0
	case ModeLatency:
		return c&CanLatency != 0
	case ModeCorrupt:
		return c&CanCorrupt != 0
	case ModeTruncate:
		return c&CanTruncate != 0
	case ModePanic:
		return c&CanPanic != 0
	}
	return false
}

// Error is the typed error an error-mode fault returns; callers and tests
// identify injected failures with errors.As.
type Error struct {
	// Point is the fault point that fired.
	Point string
	// Mode is the rule's mode (ModeError, or a data mode fired at a
	// non-data point).
	Mode Mode
}

// Error formats the injected failure with its point and mode.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s at %s", e.Mode, e.Point)
}

// PanicValue is what a panic-mode fault panics with; recovery layers (the
// engine's fan-out, advisord's middleware) surface it in their PanicError.
type PanicValue struct {
	// Point is the fault point that fired.
	Point string
}

// String identifies the injected panic's origin point.
func (p *PanicValue) String() string { return "faults: injected panic at " + p.Point }

// Point is one registered fault point: its name, what it interrupts, and the
// modes it supports.
type Point struct {
	Name string
	Desc string
	Caps Cap
}

var (
	registryMu sync.Mutex
	registry   = map[string]Point{}
)

// Register declares a fault point (typically from a package-level var at the
// site that fires it) and returns its name so the declaration doubles as the
// identifier. Re-registering a name overwrites its metadata.
func Register(name, desc string, caps Cap) string {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = Point{Name: name, Desc: desc, Caps: caps}
	return name
}

// Points lists the registered fault points sorted by name — the catalog the
// docs and the -faults flag validation are built from.
func Points() []Point {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Point, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Rule activates one fault at one point. Scheduling: with Every > 0 the rule
// fires deterministically on every Every-th hit after the first After hits;
// otherwise it fires with probability Prob per hit, drawn from the plan's
// seeded per-point stream. Count, when > 0, caps the total number of fires.
type Rule struct {
	// Point names the fault point this rule attaches to.
	Point string
	// Mode is the failure to inject.
	Mode Mode
	// Prob is the per-hit fire probability (used when Every == 0).
	Prob float64
	// Every fires deterministically on every Every-th eligible hit.
	Every int
	// After skips the first After hits entirely.
	After int
	// Count caps the number of fires (0: unlimited).
	Count int
	// Delay is the injected latency for ModeLatency.
	Delay time.Duration
}

// ruleState is a rule plus its mutable schedule state.
type ruleState struct {
	Rule
	hits  int
	fires int
	rng   *rand.Rand
}

// Plan is an activatable set of rules with a deterministic seed. Build one
// with NewPlan/ParsePlan, then Activate it.
type Plan struct {
	seed  int64
	mu    sync.Mutex
	rules map[string][]*ruleState
}

// NewPlan builds a plan from rules. Each point gets its own random stream
// derived from seed, so adding a rule for one point never perturbs another
// point's schedule.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{seed: seed, rules: make(map[string][]*ruleState)}
	for _, r := range rules {
		p.rules[r.Point] = append(p.rules[r.Point], &ruleState{
			Rule: r,
			rng:  rand.New(rand.NewSource(pointSeed(seed, r.Point))),
		})
	}
	return p
}

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// Rules returns the plan's rules in activation order per point.
func (p *Plan) Rules() []Rule {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Rule
	for _, name := range sortedRuleKeys(p.rules) {
		for _, rs := range p.rules[name] {
			out = append(out, rs.Rule)
		}
	}
	return out
}

func sortedRuleKeys(m map[string][]*ruleState) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func pointSeed(seed int64, point string) int64 {
	h := fnv.New64a()
	h.Write([]byte(point))
	return seed ^ int64(h.Sum64())
}

// active is the process-wide plan; nil means fault injection is off and
// every Fire call is a single atomic load.
var active atomic.Pointer[Plan]

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Activate validates the plan against the registered point catalog (a rule
// whose mode the point cannot express is a configuration error) and makes it
// the process-wide plan. Tests must pair it with a deferred Deactivate.
func Activate(p *Plan) error {
	if p == nil {
		return fmt.Errorf("faults: nil plan")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	for point, rules := range p.rules {
		reg, known := registry[point]
		if !known {
			continue // ad-hoc points (tests) are allowed
		}
		for _, rs := range rules {
			if !reg.Caps.has(rs.Mode) {
				return fmt.Errorf("faults: point %s does not support mode %s", point, rs.Mode)
			}
		}
	}
	active.Store(p)
	return nil
}

// Deactivate turns fault injection off. Injected-counter totals survive so a
// post-run scrape still reports what happened.
func Deactivate() { active.Store(nil) }

// injected is the per-point fire total, kept outside the plan so counters
// survive plan swaps and deactivation.
var (
	injectedMu    sync.Mutex
	injected      = map[string]uint64{}
	injectedTotal atomic.Uint64
)

func recordFire(point string) {
	injectedMu.Lock()
	injected[point]++
	injectedMu.Unlock()
	injectedTotal.Add(1)
}

// Injected snapshots the per-point injected-fault totals (for the
// faults_injected_total metric vec).
func Injected() map[string]uint64 {
	injectedMu.Lock()
	defer injectedMu.Unlock()
	out := make(map[string]uint64, len(injected))
	for k, v := range injected {
		out[k] = v
	}
	return out
}

// InjectedTotal returns the total number of injected faults since process
// start.
func InjectedTotal() uint64 { return injectedTotal.Load() }

// ResetInjected zeroes the injected counters (tests).
func ResetInjected() {
	injectedMu.Lock()
	injected = map[string]uint64{}
	injectedMu.Unlock()
	injectedTotal.Store(0)
}

// decision is what a point's rule evaluation produced.
type decision struct {
	mode  Mode
	delay time.Duration
	// rng is a private stream split off the point's seeded stream under
	// the plan lock, so data mangling happens lock-free yet two concurrent
	// fires never share rand state.
	rng *rand.Rand
}

// decide evaluates the point's rules and returns at most one firing decision
// (first matching rule wins, in plan order).
func (p *Plan) decide(point string) (decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rs := range p.rules[point] {
		rs.hits++
		if rs.hits <= rs.After {
			continue
		}
		if rs.Count > 0 && rs.fires >= rs.Count {
			continue
		}
		fire := false
		if rs.Every > 0 {
			fire = (rs.hits-rs.After)%rs.Every == 0
		} else {
			fire = rs.rng.Float64() < rs.Prob
		}
		if !fire {
			continue
		}
		rs.fires++
		d := decision{mode: rs.Mode, delay: rs.Delay}
		if rs.Mode == ModeCorrupt || rs.Mode == ModeTruncate {
			d.rng = rand.New(rand.NewSource(rs.rng.Int63()))
		}
		return d, true
	}
	return decision{}, false
}

// Fire evaluates the named point. When injection is off (or no rule fires)
// it returns nil with no side effects. Error mode returns a typed *Error;
// latency mode sleeps; panic mode panics with *PanicValue. Data modes at a
// non-data point degrade to an error so a misconfigured rule is still
// visible.
func Fire(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	d, ok := p.decide(point)
	if !ok {
		return nil
	}
	recordFire(point)
	switch d.mode {
	case ModeLatency:
		time.Sleep(d.delay)
		return nil
	case ModePanic:
		panic(&PanicValue{Point: point})
	default:
		return &Error{Point: point, Mode: d.mode}
	}
}

// FireData evaluates the named point against bytes flowing through it.
// Corrupt mode flips deterministic-random bytes, truncate mode drops a
// suffix; both return mangled data with a nil error — silent damage the
// caller's validation must catch. Error, latency and panic modes behave as
// in Fire. With injection off, data is returned untouched.
func FireData(point string, data []byte) ([]byte, error) {
	p := active.Load()
	if p == nil {
		return data, nil
	}
	d, ok := p.decide(point)
	if !ok {
		return data, nil
	}
	recordFire(point)
	switch d.mode {
	case ModeLatency:
		time.Sleep(d.delay)
		return data, nil
	case ModePanic:
		panic(&PanicValue{Point: point})
	case ModeCorrupt:
		return corrupt(d.rng, data), nil
	case ModeTruncate:
		return truncate(d.rng, data), nil
	default:
		return data, &Error{Point: point, Mode: d.mode}
	}
}

// corrupt returns a copy of data with 1 + len/64 bytes flipped at seeded
// positions.
func corrupt(rng *rand.Rand, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	flips := 1 + len(data)/64
	for i := 0; i < flips; i++ {
		pos := rng.Intn(len(out))
		out[pos] ^= byte(1 + rng.Intn(255))
	}
	return out
}

// truncate returns a strict prefix of data (possibly empty).
func truncate(rng *rand.Rand, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	n := rng.Intn(len(data))
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}
