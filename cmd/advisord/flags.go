package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
)

// config is advisord's parsed and validated flag set.
type config struct {
	addr         string
	workers      int
	cacheEntries int
	ttl          time.Duration
	quick        bool
	cacheDir     string
	debugAddr    string
	drain        time.Duration
	version      bool

	requestTimeout   time.Duration
	maxConcurrent    int
	maxQueue         int
	breakerThreshold int
	breakerCooldown  time.Duration

	faultSpec string
	faultSeed int64

	shardID     string
	peers       string
	fleetVNodes int
	adminAddr   string
}

// errFlagParse marks errors flag.Parse already reported on stderr, so main
// can exit 2 without printing them twice.
var errFlagParse = errors.New("flag parse error")

// parseConfig parses args into a config and validates it. A returned error
// is a usage error: main prints it (unless flag already did) and exits 2
// before binding any listener.
func parseConfig(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("advisord", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8025", "listen address")
	fs.IntVar(&c.workers, "workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	fs.IntVar(&c.cacheEntries, "cache-entries", 64, "capacity of each engine memo (characterizations, MB1 results, recommendations)")
	fs.DurationVar(&c.ttl, "ttl", 0, "TTL of every engine memo's entries (0 = never expires)")
	fs.BoolVar(&c.quick, "quick", false, "reduced micro-benchmark and workload scale")
	fs.StringVar(&c.cacheDir, "cache-dir", "", "warm-start directory: load cached characterizations at boot, persist new ones")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	fs.DurationVar(&c.drain, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	fs.BoolVar(&c.version, "version", false, "print build information and exit")
	fs.DurationVar(&c.requestTimeout, "request-timeout", 30*time.Second, "per-request deadline on the /v1 endpoints")
	fs.IntVar(&c.maxConcurrent, "max-concurrent", 0, "concurrent /v1 requests before queueing (0 = 64)")
	fs.IntVar(&c.maxQueue, "max-queue", 0, "queued /v1 requests before shedding with 429 (0 = 2*max-concurrent)")
	fs.IntVar(&c.breakerThreshold, "breaker-threshold", 5, "consecutive characterization failures that trip the circuit breaker")
	fs.DurationVar(&c.breakerCooldown, "breaker-cooldown", 10*time.Second, "how long the breaker stays open before a probe")
	fs.StringVar(&c.faultSpec, "faults", "", "fault-injection spec (point:mode[:k=v,...];...); also read from FAULTS when empty")
	fs.Int64Var(&c.faultSeed, "faults-seed", 1, "fault-injection plan seed")
	fs.StringVar(&c.shardID, "shard-id", "", "this replica's fleet shard ID (empty: fleet mode off)")
	fs.StringVar(&c.peers, "peers", "", "comma-separated id=url fleet membership, this shard included")
	fs.IntVar(&c.fleetVNodes, "fleet-vnodes", 0, fmt.Sprintf("virtual nodes per shard on the hash ring (0 = %d)", fleet.DefaultVNodes))
	fs.StringVar(&c.adminAddr, "admin-addr", "", "serve the fleet admin API on this address (empty: disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errFlagParse, err)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate rejects configurations that would boot a broken server: a
// non-positive drain or request deadline, a pprof listener shadowing the main
// one, an unusable cache directory, bad breaker/admission bounds, or an
// unparseable fault spec.
func (c *config) validate() error {
	if c.version {
		return nil // nothing else matters; main exits after printing
	}
	if c.drain <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", c.drain)
	}
	if c.requestTimeout <= 0 {
		return fmt.Errorf("-request-timeout must be positive, got %v", c.requestTimeout)
	}
	if c.maxConcurrent < 0 {
		return fmt.Errorf("-max-concurrent must be >= 0, got %d", c.maxConcurrent)
	}
	if c.maxQueue < 0 {
		return fmt.Errorf("-max-queue must be >= 0, got %d", c.maxQueue)
	}
	if c.breakerThreshold <= 0 {
		return fmt.Errorf("-breaker-threshold must be positive, got %d", c.breakerThreshold)
	}
	if c.breakerCooldown <= 0 {
		return fmt.Errorf("-breaker-cooldown must be positive, got %v", c.breakerCooldown)
	}
	if c.debugAddr != "" && c.debugAddr == c.addr {
		return fmt.Errorf("-debug-addr %q duplicates -addr; pprof needs its own listener", c.debugAddr)
	}
	if c.cacheDir != "" {
		if err := checkCacheDir(c.cacheDir); err != nil {
			return err
		}
	}
	if c.faultSpec != "" {
		if _, err := faults.ParsePlan(c.faultSpec, c.faultSeed); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
	}
	if err := c.validateFleet(); err != nil {
		return err
	}
	return nil
}

// validateFleet rejects half-configured fleet flags: fleet mode is all or
// nothing, keyed off -shard-id, and a membership list that does not name this
// shard would build a ring the replica is not on.
func (c *config) validateFleet() error {
	if c.shardID == "" {
		if c.peers != "" {
			return errors.New("-peers requires -shard-id")
		}
		if c.adminAddr != "" {
			return errors.New("-admin-addr requires -shard-id")
		}
		if c.fleetVNodes != 0 {
			return errors.New("-fleet-vnodes requires -shard-id")
		}
		return nil
	}
	if c.fleetVNodes < 0 {
		return fmt.Errorf("-fleet-vnodes must be >= 0, got %d", c.fleetVNodes)
	}
	if c.adminAddr != "" && (c.adminAddr == c.addr || c.adminAddr == c.debugAddr) {
		return fmt.Errorf("-admin-addr %q duplicates another listener; the admin API needs its own", c.adminAddr)
	}
	shards, err := parsePeers(c.peers)
	if err != nil {
		return err
	}
	for _, sh := range shards {
		if sh.ID == c.shardID {
			return nil
		}
	}
	return fmt.Errorf("-peers does not include -shard-id %q; list every member, this shard included", c.shardID)
}

// parsePeers reads a -peers membership list ("a=http://h1:8025,b=http://h2:8025")
// into shards. Duplicate IDs are rejected here for a better message than the
// ring's own validation would give.
func parsePeers(spec string) ([]fleet.Shard, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("-peers must list the fleet membership as id=url pairs")
	}
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
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, fmt.Errorf("-peers entry %q: url must start with http:// or https://", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("-peers lists shard %q twice", id)
		}
		seen[id] = true
		shards = append(shards, fleet.Shard{ID: id, URL: url})
	}
	if len(shards) == 0 {
		return nil, errors.New("-peers must list the fleet membership as id=url pairs")
	}
	return shards, nil
}

// fleetState builds this replica's fleet state from the validated flags; nil
// when fleet mode is off.
func (c *config) fleetState() (*fleet.State, error) {
	if c.shardID == "" {
		return nil, nil
	}
	shards, err := parsePeers(c.peers)
	if err != nil {
		return nil, err
	}
	return fleet.NewState(c.shardID, shards, c.fleetVNodes)
}

// checkCacheDir verifies that an existing -cache-dir is a writable directory
// by probing with a temp file, so permission problems surface at boot instead
// of as a failed store hours later. A missing directory is fine — the
// engine creates it at its first store.
func checkCacheDir(dir string) error {
	fi, err := os.Stat(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("-cache-dir %q: %w", dir, err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("-cache-dir %q is not a directory", dir)
	}
	probe, err := os.CreateTemp(dir, ".advisord-probe*")
	if err != nil {
		return fmt.Errorf("-cache-dir %q is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// faultPlan builds the active fault plan from -faults (which wins) or the
// FAULTS/FAULTS_SEED environment; nil when neither configures one. The spec
// was already syntax-checked by validate, but activation can still fail on a
// capability mismatch (e.g. corrupt on a point that only yields errors).
func (c *config) faultPlan() (*faults.Plan, error) {
	if c.faultSpec != "" {
		return faults.ParsePlan(c.faultSpec, c.faultSeed)
	}
	return faults.ParseEnv()
}

// usageError prints err the way flag's own parse failures do and exits 2.
func usageError(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(2)
}
