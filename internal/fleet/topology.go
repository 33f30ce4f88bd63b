package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Shard states a Topology reports. A replica only knows its own operational
// state authoritatively; peers it lists are reported as StateUnknown and
// clients track their health themselves (Router).
const (
	// StateHealthy marks a shard serving data-plane traffic.
	StateHealthy = "healthy"
	// StateDraining marks a shard shedding data-plane traffic (503) while
	// still serving cache export to its peers.
	StateDraining = "draining"
	// StateUnknown marks a peer whose state the reporting replica does not
	// track.
	StateUnknown = "unknown"
)

// Shard is one advisord replica in the fleet: a stable ID (the ring hashes
// it, so renaming a shard moves its hash range) and the data-plane base URL
// peers and clients reach it on.
type Shard struct {
	// ID is the stable ring identity, e.g. "shard-a".
	ID string `json:"id"`
	// URL is the data-plane base URL, e.g. "http://10.0.0.1:8025".
	URL string `json:"url"`
	// State is the shard's operational state as known by the reporter:
	// authoritative for the reporting shard itself, StateUnknown for peers.
	State string `json:"state,omitempty"`
}

// Topology is the fleet membership one replica answers on
// /v1/fleet/topology and /admin/v1/ring: the shard list, the per-shard
// virtual-node count, and a version clients use to order refreshes.
type Topology struct {
	// Version orders topology updates: a Router only accepts a Topology
	// whose Version exceeds the one it holds. Membership pushes
	// (advisorctl rebalance -set-peers) bump every replica's version in
	// lockstep.
	Version int64 `json:"version"`
	// Self is the reporting shard's ID ("" in client-built topologies).
	Self string `json:"self,omitempty"`
	// VNodes is the per-shard virtual-node count the ring was built with.
	VNodes int `json:"vnodes"`
	// Shards is the membership list.
	Shards []Shard `json:"shards"`
}

// State is the fleet state one advisord replica holds: membership and the
// ring derived from it, the replica's own identity and drain flag, and the
// handoff/reroute counters the fleet metrics export. Safe for concurrent
// use.
type State struct {
	self string

	mu       sync.Mutex
	vnodes   int
	version  int64
	shards   []Shard
	ring     *Ring
	draining bool

	reroutes atomic.Uint64
	exported atomic.Uint64
	imported atomic.Uint64
}

// NewState builds the fleet state for the replica self, which must appear in
// shards. vnodes 0 means DefaultVNodes. The initial topology has Version 1.
func NewState(self string, shards []Shard, vnodes int) (*State, error) {
	s := &State{self: self, vnodes: clampVNodes(vnodes), version: 0}
	if err := s.SetShards(shards); err != nil {
		return nil, err
	}
	return s, nil
}

// Self returns this replica's shard ID.
func (s *State) Self() string { return s.self }

// SetShards replaces the membership list, rebuilds the ring and bumps the
// topology version. self must remain a member — a replica cannot be ejected
// from its own fleet view; drain it instead.
func (s *State) SetShards(shards []Shard) error {
	ids := make([]string, len(shards))
	found := false
	for i, sh := range shards {
		ids[i] = sh.ID
		if sh.ID == s.self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("fleet: shard %q missing from its own membership list", s.self)
	}
	ring, err := NewRing(ids, s.vnodesSnapshot())
	if err != nil {
		return err
	}
	cp := make([]Shard, len(shards))
	copy(cp, shards)
	s.mu.Lock()
	s.shards = cp
	s.ring = ring
	s.version++
	s.mu.Unlock()
	return nil
}

func (s *State) vnodesSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vnodes
}

// Ring returns the current immutable ring.
func (s *State) Ring() *Ring {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring
}

// Version returns the current topology version.
func (s *State) Version() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version
}

// Draining reports whether this replica is shedding data-plane traffic.
func (s *State) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// SetDraining flips the drain flag (advisorctl drain / undrain).
func (s *State) SetDraining(v bool) {
	s.mu.Lock()
	s.draining = v
	s.mu.Unlock()
}

// Topology snapshots the membership for the wire: this replica's state is
// authoritative (healthy or draining), peers are reported unknown.
func (s *State) Topology() Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	shards := make([]Shard, len(s.shards))
	copy(shards, s.shards)
	for i := range shards {
		if shards[i].ID == s.self {
			if s.draining {
				shards[i].State = StateDraining
			} else {
				shards[i].State = StateHealthy
			}
		} else {
			shards[i].State = StateUnknown
		}
	}
	return Topology{Version: s.version, Self: s.self, VNodes: s.vnodes, Shards: shards}
}

// Owner returns the shard ID owning device under the current ring.
// Ownership is keyed on the catalog device name an advisory question
// carries; within a fleet (one Params per shard) that name and the engine's
// content-hash cache key are one-to-one.
func (s *State) Owner(device string) string { return s.Ring().Owner(device) }

// Owns reports whether this replica owns device.
func (s *State) Owns(device string) bool { return s.Owner(device) == s.self }

// NoteServed records one advisory question served for device, counting a
// received reroute when another shard owns it — the signal that clients
// are falling back onto this replica.
func (s *State) NoteServed(device string) {
	if !s.Owns(device) {
		s.reroutes.Add(1)
	}
}

// CountExported adds n warm-handoff entries streamed out to a peer.
func (s *State) CountExported(n int) { s.exported.Add(uint64(n)) }

// CountImported adds n warm-handoff entries pulled in from peers.
func (s *State) CountImported(n int) { s.imported.Add(uint64(n)) }

// Stats is a State counter snapshot for /statusz, /metrics and the admin
// surface.
type Stats struct {
	// Self is this replica's shard ID.
	Self string `json:"self"`
	// Version is the topology version.
	Version int64 `json:"version"`
	// Shards is the membership size (the ring-size gauge).
	Shards int `json:"shards"`
	// VNodes is the per-shard virtual-node count.
	VNodes int `json:"vnodes"`
	// Draining reports the drain flag.
	Draining bool `json:"draining"`
	// ReroutesReceived counts advisory questions served for devices owned
	// by another shard.
	ReroutesReceived uint64 `json:"reroutes_received"`
	// HandoffExported counts cache entries streamed out to peers.
	HandoffExported uint64 `json:"handoff_exported"`
	// HandoffImported counts cache entries pulled in from peers.
	HandoffImported uint64 `json:"handoff_imported"`
}

// Stats snapshots the state's counters.
func (s *State) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Self:     s.self,
		Version:  s.version,
		Shards:   len(s.shards),
		VNodes:   s.vnodes,
		Draining: s.draining,
	}
	s.mu.Unlock()
	st.ReroutesReceived = s.reroutes.Load()
	st.HandoffExported = s.exported.Load()
	st.HandoffImported = s.imported.Load()
	return st
}

// Peers returns the membership minus this replica — the shards a handoff
// pull contacts.
func (s *State) Peers() []Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if sh.ID != s.self {
			out = append(out, sh)
		}
	}
	return out
}
