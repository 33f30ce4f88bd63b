package advisord

import (
	"encoding/json"
	"fmt"
	"net/http"

	"igpucomm/internal/engine"
	"igpucomm/internal/faults"
	"igpucomm/internal/fleet"
	"igpucomm/internal/framework"
)

// Fleet surface: when Options.Fleet is set the server is one shard of a
// sharded advisord fleet and grows three route groups.
//
//   - Data plane additions: GET /v1/fleet/topology (the membership clients
//     refresh their rings from) and GET /v1/cache/export (the warm-handoff
//     NDJSON stream peers pull owned entries over). Export is deliberately
//     NOT behind the drain gate — a draining shard's whole point is to keep
//     serving its cache to peers while shedding advisory traffic.
//   - Admin plane (AdminHandler, served on -admin-addr): /admin/v1/status,
//     /admin/v1/ring, /admin/v1/drain, /admin/v1/rebalance — the surface
//     cmd/advisorctl speaks.

// faultFleetExport injects into the warm-handoff export stream (see
// internal/faults).
var faultFleetExport = faults.Register("advisord.fleet.export",
	"fleet warm-handoff cache export stream",
	faults.CanError|faults.CanLatency|faults.CanPanic)

// Fleet metric names, declared as consts so the metricname analyzer audits
// the family at one declaration site.
const (
	metricFleetRingSize            = "igpucomm_fleet_ring_size"
	metricFleetReroutesTotal       = "igpucomm_fleet_reroutes_total"
	metricFleetHandoffEntriesTotal = "igpucomm_fleet_handoff_entries_total"
	metricFleetDrainingState       = "igpucomm_fleet_draining_state"
)

// handleFleetTopology answers the shard's current fleet topology — the
// versioned membership document clients feed to Router.Update.
func (s *Server) handleFleetTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/fleet/topology")
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.Topology())
}

// handleCacheExport streams cache entries as warm-handoff NDJSON. With
// ?owner=<shardID> only the entries whose characterized platform that shard
// owns under THIS replica's ring are sent — the puller and exporter agree
// because ring ownership is a pure function of the membership list; without
// it the full cache streams.
func (s *Server) handleCacheExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/cache/export")
		return
	}
	if err := faults.Fire(faultFleetExport); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("cache export: %v", err))
		return
	}
	var include func(framework.Characterization) bool
	if owner := r.URL.Query().Get("owner"); owner != "" {
		ring := s.fleet.Ring()
		include = func(char framework.Characterization) bool { return ring.Owner(char.Platform) == owner }
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	n, err := fleet.WriteExport(w, s.eng.CacheExport(), include)
	s.fleet.CountExported(n)
	if err != nil {
		// Headers are gone; all we can do is log and cut the stream short.
		s.log.Error("cache export", "err", err)
	}
}

// AdminStatus is the /admin/v1/status payload advisorctl renders.
type AdminStatus struct {
	// Fleet is the shard's fleet counter snapshot.
	Fleet fleet.Stats `json:"fleet"`
	// Cache is the characterization cache snapshot.
	Cache engine.MemoStats `json:"cache"`
}

// AdminRing is the /admin/v1/ring payload: the topology plus each shard's
// share of the hash ring.
type AdminRing struct {
	// Topology is the versioned membership document.
	Topology fleet.Topology `json:"topology"`
	// Shares maps shard ID to its fraction of the hash ring.
	Shares map[string]float64 `json:"shares"`
}

// drainRequest is the /admin/v1/drain body.
type drainRequest struct {
	// Shard must name this replica; drain requests are not forwarded.
	Shard string `json:"shard"`
	// Drain sets (true) or clears (false) the drain flag.
	Drain bool `json:"drain"`
}

// rebalanceRequest is the /admin/v1/rebalance body.
type rebalanceRequest struct {
	// Peers, when non-empty, replaces the membership list (bumping the
	// topology version).
	Peers []fleet.Shard `json:"peers,omitempty"`
	// Pull, when true, warm-pulls the entries this shard owns from every
	// peer after the membership update.
	Pull bool `json:"pull,omitempty"`
}

// RebalanceResponse is the /admin/v1/rebalance reply.
type RebalanceResponse struct {
	// Version is the topology version after the update.
	Version int64 `json:"version"`
	// Pulled is how many cache entries the warm pull installed.
	Pulled int `json:"pulled"`
	// PeerErrors lists peers the pull could not reach.
	PeerErrors []string `json:"peer_errors,omitempty"`
}

// AdminHandler builds the fleet admin surface advisorctl speaks. Serve it on
// a separate listener (-admin-addr) so operator commands never queue behind
// data-plane admission control. Nil when the server is not part of a fleet.
func (s *Server) AdminHandler() http.Handler {
	if s.fleet == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/v1/status", s.handleAdminStatus)
	mux.HandleFunc("/admin/v1/ring", s.handleAdminRing)
	mux.HandleFunc("/admin/v1/drain", s.handleAdminDrain)
	mux.HandleFunc("/admin/v1/rebalance", s.handleAdminRebalance)
	return s.recoverPanics(mux)
}

func (s *Server) handleAdminStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /admin/v1/status")
		return
	}
	writeJSON(w, http.StatusOK, AdminStatus{
		Fleet: s.fleet.Stats(),
		Cache: s.eng.Stats().Characterizations,
	})
}

func (s *Server) handleAdminRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /admin/v1/ring")
		return
	}
	writeJSON(w, http.StatusOK, AdminRing{
		Topology: s.fleet.Topology(),
		Shares:   s.fleet.Ring().Shares(),
	})
}

func (s *Server) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /admin/v1/drain")
		return
	}
	var req drainRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if req.Shard != s.fleet.Self() {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("this replica is %q, not %q; send drain to the shard's own admin address", s.fleet.Self(), req.Shard))
		return
	}
	s.fleet.SetDraining(req.Drain)
	s.log.Info("drain flag set", "shard", req.Shard, "drain", req.Drain)
	writeJSON(w, http.StatusOK, map[string]bool{"draining": req.Drain})
}

func (s *Server) handleAdminRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST /admin/v1/rebalance")
		return
	}
	var req rebalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Peers) > 0 {
		if err := s.fleet.SetShards(req.Peers); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.log.Info("membership updated", "version", s.fleet.Version(), "shards", len(req.Peers))
	}
	resp := RebalanceResponse{Version: s.fleet.Version()}
	if req.Pull {
		rep, err := fleet.Pull(r.Context(), s.fleet, nil, s.eng.CachePut)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Pulled = rep.Pulled
		resp.PeerErrors = rep.PeerErrors
		s.log.Info("warm pull complete", "pulled", rep.Pulled, "peer_errors", len(rep.PeerErrors))
	}
	writeJSON(w, http.StatusOK, resp)
}
