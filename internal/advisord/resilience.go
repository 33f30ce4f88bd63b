package advisord

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"igpucomm/internal/engine"
)

// Breaker state names, exposed on /statusz and as the breaker_state gauge
// (closed=0, half-open=1, open=2).
const (
	BreakerClosed   = "closed"
	BreakerHalfOpen = "half-open"
	BreakerOpen     = "open"
)

// Breaker is a circuit breaker around device characterization. Consecutive
// characterization failures trip it open; while open, advisory requests skip
// the engine entirely and answer in degraded mode. After a cooldown it
// half-opens and lets exactly one probe through: success closes it, failure
// re-opens it for another cooldown.
//
// Context cancellations and deadline expiries do not count as failures — a
// client hanging up says nothing about the engine's health. On /v1/advise an
// attempt is the question's whole engine Advise call, so a half-open probe
// holds its slot through profiling as well as characterization.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    string
	failures int
	openedAt time.Time
	probing  bool
}

// newBreaker builds a breaker; now must be non-nil (the server passes its
// Clock's Now, defaulting to the wall clock).
func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now, state: BreakerClosed}
}

// Allow asks whether a characterization attempt may proceed. When it may,
// ok is true and the caller must invoke done with the attempt's outcome.
// When it may not (breaker open, or a half-open probe already in flight),
// ok is false and done is nil.
func (b *Breaker) Allow() (done func(err error), ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return nil, false
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	case BreakerHalfOpen:
		if b.probing {
			return nil, false
		}
		b.probing = true
	}
	return b.record, true
}

// record folds one attempt's outcome into the breaker.
func (b *Breaker) record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The caller went away; that says nothing about the engine, so the
		// attempt is inconclusive: release a half-open probe slot without
		// moving the state.
		b.probing = false
		return
	}
	if err == nil {
		b.state = BreakerClosed
		b.failures = 0
		b.probing = false
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.failures = 0
		b.probing = false
	}
}

// characterizationOutcome reduces an engine Advise error to the outcome the
// breaker records: a characterization failure or an ended context (which
// record treats as inconclusive) passes through; success and every other
// failure (profiling, an unknown workload) mean the characterization the
// question needed was there.
func characterizationOutcome(err error) error {
	if errors.Is(err, engine.ErrCharacterization) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// State returns the breaker's current state name, advancing open to
// half-open when the cooldown has lapsed so /statusz never reports a stale
// open.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// stateValue encodes State for the breaker_state gauge.
func (b *Breaker) stateValue() float64 {
	switch b.State() {
	case BreakerOpen:
		return 2
	case BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// RetryAfter estimates how long a shed caller should wait before retrying:
// the remaining cooldown, floored at one second.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return time.Second
	}
	remaining := b.cooldown - b.now().Sub(b.openedAt)
	if remaining < time.Second {
		return time.Second
	}
	return remaining.Round(time.Second)
}

// admission is the bounded admission queue in front of the /v1 handlers:
// maxConcurrent requests execute, up to maxQueue more wait for a slot, and
// everything beyond that is shed immediately (429) instead of piling up
// latency the clients have already given up on.
type admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{slots: make(chan struct{}, maxConcurrent), maxQueue: int64(maxQueue)}
}

// acquire claims an execution slot, waiting in the bounded queue when all
// slots are busy. ok is false when the request must be shed (queue full) or
// the context ended while queued; on true, the caller must call release.
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, true
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return nil, false
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, true
	case <-ctx.Done():
		return nil, false
	}
}
