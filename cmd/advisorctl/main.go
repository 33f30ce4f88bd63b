// Command advisorctl is the operator CLI for a sharded advisord fleet. It
// speaks the admin API each replica serves on -admin-addr (see
// internal/advisord.AdminHandler) and knows the fleet only by that list of
// admin endpoints — no service discovery, no shared state.
//
// Commands:
//
//	status                 one row per replica: version, drain flag, cache, handoff counters
//	ring                   ring topology and each shard's share of the key space
//	drain <shard>          set the shard's drain flag (locates it by querying each replica)
//	undrain <shard>        clear the shard's drain flag
//	rebalance              push a membership list to every replica and/or trigger warm pulls
//
// Usage:
//
//	advisorctl -fleet http://h1:8125,http://h2:8125 status
//	advisorctl -fleet http://h1:8125,http://h2:8125 ring
//	advisorctl -fleet http://h1:8125,http://h2:8125 drain shard-b
//	advisorctl -fleet http://h1:8125,http://h2:8125,http://h3:8125 rebalance \
//	    -peers "a=http://h1:8025,b=http://h2:8025,c=http://h3:8025" -pull
//
// The fleet list is read from -fleet or, when the flag is empty, from the
// ADVISORCTL_FLEET environment variable. Exit status 1 when any replica in
// the fleet could not be reached or refused the command; 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"igpucomm/internal/advisord"
	"igpucomm/internal/buildinfo"
	"igpucomm/internal/fleet"
)

// ctl carries one invocation's fleet endpoints and I/O.
type ctl struct {
	endpoints []string // admin base URLs, e.g. http://h1:8125
	hc        *http.Client
	out       io.Writer
	errw      io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisorctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fleetFlag := fs.String("fleet", "", "comma-separated admin base URLs (also read from ADVISORCTL_FLEET)")
	timeout := fs.Duration("timeout", 10*time.Second, "overall deadline for the command")
	version := fs.Bool("version", false, "print build information and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: advisorctl -fleet <url,...> <status|ring|drain|undrain|rebalance> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Get())
		return 0
	}
	spec := *fleetFlag
	if spec == "" {
		spec = os.Getenv("ADVISORCTL_FLEET")
	}
	endpoints := splitEndpoints(spec)
	if len(endpoints) == 0 {
		fmt.Fprintln(stderr, "advisorctl: no fleet endpoints; pass -fleet or set ADVISORCTL_FLEET")
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	c := &ctl{endpoints: endpoints, hc: http.DefaultClient, out: stdout, errw: stderr}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "status":
		return c.status(ctx)
	case "ring":
		return c.ring(ctx)
	case "drain", "undrain":
		if len(rest) != 1 {
			fmt.Fprintf(stderr, "advisorctl: %s takes exactly one shard ID\n", cmd)
			return 2
		}
		return c.drain(ctx, rest[0], cmd == "drain")
	case "rebalance":
		return c.rebalance(ctx, rest, stderr)
	default:
		fmt.Fprintf(stderr, "advisorctl: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

// splitEndpoints turns "http://h1:8125, http://h2:8125" into a URL list.
func splitEndpoints(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// getJSON GETs one admin endpoint path into v.
func (c *ctl) getJSON(ctx context.Context, base, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, readError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// postJSON POSTs body to one admin endpoint path, decoding into v when
// non-nil.
func (c *ctl) postJSON(ctx context.Context, base, path string, body, v any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, readError(resp))
	}
	if v == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readError extracts the server's {"error": ...} message for a human.
func readError(resp *http.Response) string {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Sprintf("%d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Sprintf("%d: %s", resp.StatusCode, bytes.TrimSpace(data))
}

// status prints one row per replica; unreachable replicas get an error row
// and fail the command.
func (c *ctl) status(ctx context.Context) int {
	tw := tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tVERSION\tDRAINING\tENTRIES\tHIT-RATE\tREROUTES\tEXPORTED\tIMPORTED\tENDPOINT")
	failed := 0
	for _, ep := range c.endpoints {
		var st advisord.AdminStatus
		if err := c.getJSON(ctx, ep, "/admin/v1/status", &st); err != nil {
			fmt.Fprintf(c.errw, "advisorctl: %s: %v\n", ep, err)
			failed++
			continue
		}
		total := st.Cache.Hits + st.Cache.Misses
		hitRate := 0.0
		if total > 0 {
			hitRate = float64(st.Cache.Hits) / float64(total)
		}
		fmt.Fprintf(tw, "%s\t%d\t%t\t%d\t%.2f\t%d\t%d\t%d\t%s\n",
			st.Fleet.Self, st.Fleet.Version, st.Fleet.Draining, st.Cache.Entries,
			hitRate, st.Fleet.ReroutesReceived, st.Fleet.HandoffExported,
			st.Fleet.HandoffImported, ep)
	}
	tw.Flush()
	if failed > 0 {
		return 1
	}
	return 0
}

// ring prints the topology and key-space shares from the first replica that
// answers — every replica at a given version reports the same ring.
func (c *ctl) ring(ctx context.Context) int {
	var doc advisord.AdminRing
	var errs []error
	got := false
	for _, ep := range c.endpoints {
		if err := c.getJSON(ctx, ep, "/admin/v1/ring", &doc); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", ep, err))
			continue
		}
		got = true
		break
	}
	if !got {
		fmt.Fprintf(c.errw, "advisorctl: every replica refused ring: %v\n", errors.Join(errs...))
		return 1
	}
	fmt.Fprintf(c.out, "topology version %d, %d shards, %d vnodes/shard (reported by %s)\n",
		doc.Topology.Version, len(doc.Topology.Shards), doc.Topology.VNodes, doc.Topology.Self)
	tw := tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tSHARE\tSTATE\tURL")
	shards := append([]fleet.Shard(nil), doc.Topology.Shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	for _, sh := range shards {
		state := sh.State
		if state == "" {
			state = fleet.StateUnknown
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%s\t%s\n", sh.ID, doc.Shares[sh.ID], state, sh.URL)
	}
	tw.Flush()
	return 0
}

// drain locates the shard by asking each replica who it is, then sets or
// clears its drain flag.
func (c *ctl) drain(ctx context.Context, shard string, drain bool) int {
	var found []string
	for _, ep := range c.endpoints {
		var st advisord.AdminStatus
		if err := c.getJSON(ctx, ep, "/admin/v1/status", &st); err != nil {
			fmt.Fprintf(c.errw, "advisorctl: %s: %v\n", ep, err)
			continue
		}
		found = append(found, st.Fleet.Self)
		if st.Fleet.Self != shard {
			continue
		}
		body := map[string]any{"shard": shard, "drain": drain}
		if err := c.postJSON(ctx, ep, "/admin/v1/drain", body, nil); err != nil {
			fmt.Fprintf(c.errw, "advisorctl: %s: %v\n", ep, err)
			return 1
		}
		verb := "draining"
		if !drain {
			verb = "serving"
		}
		fmt.Fprintf(c.out, "shard %s now %s (via %s)\n", shard, verb, ep)
		return 0
	}
	fmt.Fprintf(c.errw, "advisorctl: no replica identifies as %q (saw: %s)\n",
		shard, strings.Join(found, ", "))
	return 1
}

// rebalance pushes a membership list to every replica (each bumps its
// topology version) and optionally triggers the warm pull that moves owned
// cache entries onto their new shards.
func (c *ctl) rebalance(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("advisorctl rebalance", flag.ContinueOnError)
	fs.SetOutput(stderr)
	peersSpec := fs.String("peers", "", "new membership as comma-separated id=url pairs (empty: keep current)")
	pull := fs.Bool("pull", false, "after the membership update, each replica warm-pulls the entries it owns")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var peers []fleet.Shard
	if *peersSpec != "" {
		var err error
		if peers, err = parsePeers(*peersSpec); err != nil {
			fmt.Fprintf(stderr, "advisorctl: %v\n", err)
			return 2
		}
	}
	if *peersSpec == "" && !*pull {
		fmt.Fprintln(stderr, "advisorctl: rebalance needs -peers, -pull, or both")
		return 2
	}
	body := map[string]any{"pull": *pull}
	if len(peers) > 0 {
		body["peers"] = peers
	}
	tw := tabwriter.NewWriter(c.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tVERSION\tPULLED\tPEER-ERRORS")
	failed := 0
	for _, ep := range c.endpoints {
		var rep advisord.RebalanceResponse
		if err := c.postJSON(ctx, ep, "/admin/v1/rebalance", body, &rep); err != nil {
			fmt.Fprintf(c.errw, "advisorctl: %s: %v\n", ep, err)
			failed++
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", ep, rep.Version, rep.Pulled, len(rep.PeerErrors))
		for _, pe := range rep.PeerErrors {
			fmt.Fprintf(c.errw, "advisorctl: %s: peer error: %s\n", ep, pe)
		}
	}
	tw.Flush()
	if failed > 0 {
		return 1
	}
	return 0
}

// parsePeers reads "a=http://h1:8025,b=http://h2:8025" into shards.
func parsePeers(spec string) ([]fleet.Shard, error) {
	seen := make(map[string]bool)
	var shards []fleet.Shard
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q is not id=url", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("-peers lists shard %q twice", id)
		}
		seen[id] = true
		shards = append(shards, fleet.Shard{ID: id, URL: url})
	}
	if len(shards) == 0 {
		return nil, errors.New("-peers must list the membership as id=url pairs")
	}
	return shards, nil
}
