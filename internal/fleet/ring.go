// Package fleet shards the advisory service across N advisord replicas: a
// consistent-hash ring over catalog device names (bounded virtual nodes,
// deterministic across process restarts), a server-side State each replica
// holds (membership, ring, drain flag, handoff counters), a client-side
// Router (shard preference order, replica health tracking, any-replica
// fallback), warm-handoff streaming of cache entries between peers, and a
// closed-loop load generator the fleet harness and `make fleet` drive.
//
// The ring hashes only stable inputs — shard IDs and device names — so
// ownership is a pure function of the membership list: every replica, every
// client and every restart of either computes the same owner for the same
// device. A question routes on the device it names and a cache entry on the
// platform it characterizes; within a fleet, where every shard runs one
// set of micro-benchmark parameters, a device name and the engine's
// content-hash characterization key are one-to-one.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// Virtual-node bounds: the ring is O(shards x vnodes) points, rebuilt on
// every membership change and binary-searched per request, so the vnode
// count is clamped to keep both costs bounded.
const (
	// DefaultVNodes is the virtual-node count per shard when a caller
	// passes 0.
	DefaultVNodes = 64
	// MaxVNodes caps the per-shard virtual-node count.
	MaxVNodes = 512
)

// clampVNodes applies the bounded-ring policy.
func clampVNodes(v int) int {
	if v <= 0 {
		return DefaultVNodes
	}
	if v > MaxVNodes {
		return MaxVNodes
	}
	return v
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the index (into the sorted shard list) of the shard that owns the arc
// ending at it.
type ringPoint struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash ring: shard IDs expanded into a
// bounded number of virtual nodes each, sorted on a 64-bit hash circle.
// Build a new Ring for every membership change; lookups are safe for
// concurrent use.
type Ring struct {
	shards []string // sorted, unique
	vnodes int
	points []ringPoint // sorted by hash
}

// NewRing builds a ring over the given shard IDs with vnodes virtual nodes
// per shard (0 means DefaultVNodes; values above MaxVNodes are clamped).
// Shard order does not matter — IDs are sorted and deduplicated, so two
// rings built from permutations of one membership list are identical.
func NewRing(shardIDs []string, vnodes int) (*Ring, error) {
	if len(shardIDs) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard")
	}
	vnodes = clampVNodes(vnodes)
	sorted := append([]string(nil), shardIDs...)
	sort.Strings(sorted)
	uniq := sorted[:0]
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("fleet: empty shard ID")
		}
		if i > 0 && id == sorted[i-1] {
			return nil, fmt.Errorf("fleet: duplicate shard ID %q", id)
		}
		uniq = append(uniq, id)
	}
	r := &Ring{
		shards: uniq,
		vnodes: vnodes,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for si, id := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(id + "#" + strconv.Itoa(v)),
				shard: si,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnodes is astronomically unlikely but
		// must still order deterministically.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// hash64 maps a string to a position on the hash circle. sha256 keeps the
// placement uniform for both shard vnode labels and the engine's already-
// hashed cache keys, and — unlike maphash — is stable across processes,
// which is what makes ring ownership reproducible after a restart.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Shards returns the sorted member shard IDs.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Size returns the number of member shards.
func (r *Ring) Size() int { return len(r.shards) }

// VNodes returns the per-shard virtual-node count after clamping.
func (r *Ring) VNodes() int { return r.vnodes }

// ownerIndex returns the index into points of the vnode owning key.
func (r *Ring) ownerIndex(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return i
}

// Owner returns the shard ID owning key.
func (r *Ring) Owner(key string) string {
	return r.shards[r.points[r.ownerIndex(key)].shard]
}

// Preference returns up to n distinct shard IDs in ring order starting at
// key's owner: the owner first, then the successor shards a client should
// fall back to when the owner is unhealthy. n <= 0 or n > Size returns all
// shards.
func (r *Ring) Preference(key string, n int) []string {
	if n <= 0 || n > len(r.shards) {
		n = len(r.shards)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.ownerIndex(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, r.shards[p.shard])
	}
	return out
}

// Shares returns the fraction of the 64-bit key space each shard owns — the
// balance number `advisorctl ring` shows operators. Fractions sum to 1.
func (r *Ring) Shares() map[string]float64 {
	// Accumulate in float64: a shard's arcs can sum to the full 2^64
	// circle (single-shard ring), which would wrap a uint64 accumulator
	// to zero.
	arcs := make(map[string]float64, len(r.shards))
	const whole = float64(1<<63) * 2 // 2^64 as a float
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// The arc (prev, p.hash] belongs to p's shard; the wrap arc length
		// falls out of unsigned subtraction.
		arcs[r.shards[p.shard]] += float64(p.hash - prev)
	}
	out := make(map[string]float64, len(arcs))
	for id, arc := range arcs {
		out[id] = arc / whole
	}
	return out
}
