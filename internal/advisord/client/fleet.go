package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/fleet"
)

// Fleet routing, layered UNDER the retry policy: Advise groups the batch by
// owning shard (each question's device name hashed on the shared ring —
// the same name the server's ownership checks and cache export use), posts
// each group to its owner, and on every retry re-picks a shard from the
// device's preference order — so a 429, 5xx or network failure walks down
// the ring to the next replica instead of hammering the same one. The
// router's health tracking demotes repeat offenders, and retryable failures
// trigger a rate-limited topology refresh so a membership change pushed by
// advisorctl reaches clients mid-storm.

// shardGroup is the slice of one batch owned by a single shard.
type shardGroup struct {
	device string // routing name: the device of the group's first question
	idxs   []int  // positions in the original batch
	reqs   []advisord.AdviseRequest
}

// adviseFleet answers a batch through the fleet: split by owning shard,
// route each group independently, reassemble results in request order. A
// group that exhausts its retries fails the whole call with every group
// error joined — a partial batch would silently drop questions.
func (c *Client) adviseFleet(ctx context.Context, body advisord.AdviseBody) (advisord.AdviseResponse, error) {
	groups := make(map[string]*shardGroup)
	for i, ar := range body.Requests {
		owner := c.opt.Fleet.Owner(ar.Device)
		g := groups[owner]
		if g == nil {
			g = &shardGroup{device: ar.Device}
			groups[owner] = g
		}
		g.idxs = append(g.idxs, i)
		g.reqs = append(g.reqs, ar)
	}
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners)

	results := make([]advisord.AdviseResult, len(body.Requests))
	var errs []error
	for _, owner := range owners {
		g := groups[owner]
		out, err := c.adviseGroup(ctx, g.device, advisord.AdviseBody{Requests: g.reqs})
		if err != nil {
			errs = append(errs, fmt.Errorf("client: shard group %s: %w", owner, err))
			continue
		}
		if len(out.Results) != len(g.idxs) {
			errs = append(errs, fmt.Errorf("client: shard group %s: %d results for %d requests", owner, len(out.Results), len(g.idxs)))
			continue
		}
		for j, idx := range g.idxs {
			results[idx] = out.Results[j]
		}
	}
	if len(errs) > 0 {
		return advisord.AdviseResponse{}, errors.Join(errs...)
	}
	return advisord.AdviseResponse{Results: results}, nil
}

// adviseGroup posts one shard group under the retry policy, re-picking the
// target shard from device's preference order on every attempt.
func (c *Client) adviseGroup(ctx context.Context, device string, body advisord.AdviseBody) (advisord.AdviseResponse, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return advisord.AdviseResponse{}, fmt.Errorf("client: encode request: %w", err)
	}
	var out advisord.AdviseResponse
	tried := make(map[string]bool)
	lastShard := ""
	err = c.retry(ctx, func(ctx context.Context) (bool, time.Duration, error) {
		sh := c.pickShard(device, tried)
		tried[sh.ID] = true
		if lastShard != "" && sh.ID != lastShard {
			c.opt.Fleet.NoteReroute()
		}
		lastShard = sh.ID
		retryable, retryAfter, err := c.postAdviseOnce(ctx, sh.URL, payload, &out)
		if err == nil {
			c.opt.Fleet.ReportSuccess(sh.ID)
			return false, 0, nil
		}
		if retryable {
			c.opt.Fleet.ReportFailure(sh.ID)
			// The failure may mean the topology moved under us (a drained
			// or replaced shard); refresh it, rate-limited, before the
			// next attempt re-picks.
			c.maybeRefreshTopology(ctx)
		}
		return retryable, retryAfter, err
	})
	if err != nil {
		return advisord.AdviseResponse{}, err
	}
	return out, nil
}

// pickShard returns the first shard in device's preference order not yet
// tried this call. Once every shard has been tried the tried set resets —
// later attempts walk the (possibly refreshed) preference order again
// rather than giving up routing.
func (c *Client) pickShard(device string, tried map[string]bool) fleet.Shard {
	pref := c.opt.Fleet.Route(device)
	for _, sh := range pref {
		if !tried[sh.ID] {
			return sh
		}
	}
	for id := range tried {
		delete(tried, id)
	}
	return pref[0]
}

// RefreshTopology fetches /v1/fleet/topology from the fleet, first replica
// to answer wins, and installs it on the router when newer than what the
// router holds. Safe to call concurrently; no-op error when the client has
// no fleet.
func (c *Client) RefreshTopology(ctx context.Context) error {
	if c.opt.Fleet == nil {
		return errors.New("client: no fleet configured")
	}
	var errs []error
	for _, sh := range c.opt.Fleet.Shards() {
		topo, err := c.fetchTopology(ctx, sh.URL)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", sh.ID, err))
			continue
		}
		if _, err := c.opt.Fleet.Update(topo); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", sh.ID, err))
			continue
		}
		return nil
	}
	return fmt.Errorf("client: topology refresh failed on every shard: %w", errors.Join(errs...))
}

// fetchTopology GETs one replica's topology document.
func (c *Client) fetchTopology(ctx context.Context, baseURL string) (fleet.Topology, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/fleet/topology", nil)
	if err != nil {
		return fleet.Topology{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fleet.Topology{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fleet.Topology{}, &APIError{Status: resp.StatusCode, Message: readErrorBody(resp.Body)}
	}
	var topo fleet.Topology
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		return fleet.Topology{}, fmt.Errorf("decode topology: %w", err)
	}
	return topo, nil
}

// maybeRefreshTopology refreshes at most once per RefreshMinInterval,
// best-effort — a failed refresh must not fail the advisory call that
// triggered it.
func (c *Client) maybeRefreshTopology(ctx context.Context) {
	c.refreshMu.Lock()
	now := c.clock.Now()
	due := c.lastRefresh.IsZero() || now.Sub(c.lastRefresh) >= c.opt.RefreshMinInterval
	if due {
		c.lastRefresh = now
	}
	c.refreshMu.Unlock()
	if !due {
		return
	}
	if err := c.RefreshTopology(ctx); err != nil {
		// Best-effort: the next retry still has the old ring to walk.
		return
	}
}
