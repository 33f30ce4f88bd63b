// Package client is a resilient HTTP client for the advisord service:
// exponential backoff with full jitter, a total retry budget, and honoring
// of the server's Retry-After hints, so a fleet of callers backs off
// politely instead of hammering a struggling server in lockstep. The
// deterministic simulation suite drives every advisory question through it
// under injected faults.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/fleet"
	"igpucomm/internal/simnet"
)

// Options configures a Client. Zero values mean defaults.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8025".
	BaseURL string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds total tries per call, first included (0: 4).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0: 50ms).
	BaseDelay time.Duration
	// MaxDelay caps any single backoff sleep (0: 2s).
	MaxDelay time.Duration
	// Budget caps the summed backoff sleeps per call; when the next sleep
	// would exceed it, the call fails with ErrBudgetExhausted wrapping the
	// last attempt's error (0: 10s).
	Budget time.Duration
	// Seed makes the jitter deterministic (0: 1).
	Seed int64
	// Clock is the time source for backoff sleeps and the topology-refresh
	// rate limiter (nil: simnet.Real()). The DST harness injects a virtual
	// clock here, so a full retry storm replays without wall-clock waits.
	Clock simnet.Clock
	// Sleep overrides the backoff wait (tests); it takes precedence over
	// Clock for sleeping. It must return early with ctx.Err() when the
	// context ends mid-sleep.
	Sleep func(ctx context.Context, d time.Duration) error

	// Fleet, when non-nil, routes each advisory question to the shard
	// owning the device it names, layered UNDER the retry policy: every
	// retry re-picks a shard from the device's preference order, so a
	// 429/5xx or network failure reroutes to the next replica. BaseURL is
	// ignored when Fleet is set.
	Fleet *fleet.Router
	// RefreshMinInterval rate-limits the topology refresh triggered by
	// retryable failures (0: 2s).
	RefreshMinInterval time.Duration
}

// ErrBudgetExhausted marks a call abandoned because its retry budget ran
// out before an attempt succeeded.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// APIError is a non-retryable (or final) HTTP-level failure from the server.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error body, when decodable.
	Message string
}

// Error formats the status and server message.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
}

// Client calls advisord with retries. Safe for concurrent use except for the
// jitter stream, which is internally locked via the channel-free rand guard
// below; create one client per goroutine in hot paths.
type Client struct {
	opt   Options
	http  *http.Client
	clock simnet.Clock
	sleep func(ctx context.Context, d time.Duration) error

	rngCh chan *rand.Rand // capacity-1 channel as a lock on the jitter stream

	// refreshMu guards lastRefresh, the topology-refresh rate limiter.
	refreshMu   sync.Mutex
	lastRefresh time.Time
}

// New builds a client for the server at opt.BaseURL.
func New(opt Options) *Client {
	if opt.HTTPClient == nil {
		opt.HTTPClient = http.DefaultClient
	}
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 4
	}
	if opt.BaseDelay <= 0 {
		opt.BaseDelay = 50 * time.Millisecond
	}
	if opt.MaxDelay <= 0 {
		opt.MaxDelay = 2 * time.Second
	}
	if opt.Budget <= 0 {
		opt.Budget = 10 * time.Second
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.RefreshMinInterval <= 0 {
		opt.RefreshMinInterval = 2 * time.Second
	}
	if opt.Clock == nil {
		opt.Clock = simnet.Real()
	}
	sleep := opt.Sleep
	if sleep == nil {
		sleep = opt.Clock.Sleep
	}
	c := &Client{opt: opt, http: opt.HTTPClient, clock: opt.Clock, sleep: sleep, rngCh: make(chan *rand.Rand, 1)}
	c.rngCh <- rand.New(rand.NewSource(opt.Seed))
	return c
}

// backoff returns the full-jitter delay for a retry: uniform in
// [0, min(MaxDelay, BaseDelay<<attempt)].
func (c *Client) backoff(attempt int) time.Duration {
	ceil := c.opt.MaxDelay
	if shifted := c.opt.BaseDelay << uint(attempt); shifted < ceil && shifted > 0 {
		ceil = shifted
	}
	rng := <-c.rngCh
	d := time.Duration(rng.Int63n(int64(ceil) + 1))
	c.rngCh <- rng
	return d
}

// Advise posts a batch of advisory questions, retrying transient failures
// (network errors, 429, 5xx) under the client's backoff policy. Retry-After
// headers raise the next sleep's floor whether they arrive on a 429 (at
// capacity) or a 503 (shard draining, breaker open). With
// Options.Fleet set, each question routes to the shard owning the device it
// names (see fleet.go) — the same retries and budgets apply,
// per shard group.
func (c *Client) Advise(ctx context.Context, body advisord.AdviseBody) (advisord.AdviseResponse, error) {
	if c.opt.Fleet != nil {
		return c.adviseFleet(ctx, body)
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return advisord.AdviseResponse{}, fmt.Errorf("client: encode request: %w", err)
	}
	var out advisord.AdviseResponse
	err = c.retry(ctx, func(ctx context.Context) (bool, time.Duration, error) {
		return c.postAdviseOnce(ctx, c.opt.BaseURL, payload, &out)
	})
	if err != nil {
		return advisord.AdviseResponse{}, err
	}
	return out, nil
}

// postAdviseOnce is one POST /v1/advise attempt against one base URL,
// reporting retryability and any server-imposed delay floor exactly as the
// retry loop expects.
func (c *Client) postAdviseOnce(ctx context.Context, baseURL string, payload []byte, out *advisord.AdviseResponse) (retryable bool, retryAfter time.Duration, _ error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/v1/advise", bytes.NewReader(payload))
	if err != nil {
		return false, 0, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return true, 0, fmt.Errorf("client: post advise: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode, Message: readErrorBody(resp.Body)}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
			return true, parseRetryAfter(resp.Header.Get("Retry-After")), apiErr
		}
		return false, 0, apiErr
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return true, 0, fmt.Errorf("client: decode response: %w", err)
	}
	return false, 0, nil
}

// retry runs attempt under the backoff policy. attempt reports whether its
// error is worth retrying and an optional server-imposed minimum delay.
func (c *Client) retry(ctx context.Context, attempt func(ctx context.Context) (bool, time.Duration, error)) error {
	var lastErr error
	var spent time.Duration
	var floor time.Duration
	for try := 0; try < c.opt.MaxAttempts; try++ {
		if try > 0 {
			d := c.backoff(try - 1)
			if d < floor {
				d = floor
			}
			if spent+d > c.opt.Budget {
				return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, try, lastErr)
			}
			spent += d
			if err := c.sleep(ctx, d); err != nil {
				return fmt.Errorf("client: backoff interrupted: %w", err)
			}
		}
		retryable, retryAfter, err := attempt(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("client: %w: last error: %v", ctx.Err(), lastErr)
		}
		floor = retryAfter
	}
	return fmt.Errorf("client: giving up after %d attempts: %w", c.opt.MaxAttempts, lastErr)
}

// readErrorBody extracts the server's {"error": ...} message, falling back
// to the raw body prefix.
func readErrorBody(r io.Reader) string {
	data, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return ""
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(data))
}

// parseRetryAfter reads a Retry-After header's delay-seconds form.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}
