// Package hazard statically and dynamically verifies CPU-iGPU communication
// schedules. The paper's zero-copy pattern (§III-C, Fig 4) is race-free only
// because even/odd tile ownership keeps the two sides' accesses disjoint
// within a phase and the phase barrier orders everything across phases —
// properties the rest of the repo asserts in comments. This package proves
// them (or refutes them with a concrete counterexample):
//
//   - The schedule verifier takes an explicit per-phase tile assignment
//     (derived from a tiling.Pattern or injected by hand) and checks that
//     CPU and GPU tile sets are disjoint per phase and that every
//     cross-parity access pair is ordered by a phase barrier, using a
//     vector-clock happens-before model.
//   - The layout verifier checks that no two live mmu allocations overlap.
//   - The trace checker replays coalesced transaction traces (the CSV
//     `advisor trace` emits) and flags RAW/WAR/WAW hazards on shared buffers and
//     software-coherence flush-ordering violations (an access to a line the
//     other side dirtied in its cache with no intervening flush).
//
// internal/comm wires the verifier into the communication models as an
// opt-in checked mode; cmd/hazardcheck exposes it over every device × app ×
// model combination.
package hazard

import (
	"fmt"
	"strings"
)

// Kind classifies a finding.
type Kind int

// Finding kinds.
const (
	// ParityOverlap: a tile is assigned to both CPU and GPU in one phase.
	ParityOverlap Kind = iota
	// BarrierOrder: two cross-agent accesses to one tile are not ordered
	// by any phase barrier (concurrent under the vector-clock model).
	BarrierOrder
	// LayoutOverlap: two live allocations overlap in the address space.
	LayoutOverlap
	// ZeroSized: an allocation or tile set is empty where it must not be.
	ZeroSized
	// RAW: a read observes data concurrently written by the other agent.
	RAW
	// WAR: a write clobbers data the other agent is concurrently reading.
	WAR
	// WAW: two concurrent writes to the same line by different agents.
	WAW
	// FlushOrder: an agent reads a line the other side dirtied in its
	// cache with no intervening flush (software-coherence violation).
	FlushOrder
)

func (k Kind) String() string {
	switch k {
	case ParityOverlap:
		return "parity-overlap"
	case BarrierOrder:
		return "barrier-order"
	case LayoutOverlap:
		return "layout-overlap"
	case ZeroSized:
		return "zero-sized"
	case RAW:
		return "raw"
	case WAR:
		return "war"
	case WAW:
		return "waw"
	case FlushOrder:
		return "flush-order"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Finding is one verified hazard: a schedule, layout or trace fact that
// breaks the communication model's correctness argument.
type Finding struct {
	Kind Kind

	// Phase is the schedule phase (or trace epoch) the conflict occurs in;
	// -1 when not applicable.
	Phase int
	// Tile and OtherTile are the conflicting tile indices for schedule
	// findings; -1 when not applicable.
	Tile, OtherTile int
	// Buffer and OtherBuffer name the conflicting allocations for layout
	// findings.
	Buffer, OtherBuffer string
	// Addr and Size locate the conflicting bytes for layout and trace
	// findings.
	Addr, Size int64
	// Seq and OtherSeq are the trace event sequence numbers in conflict;
	// -1 when not applicable.
	Seq, OtherSeq int

	// Detail is the human-readable counterexample.
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s", f.Kind, f.Detail)
}

// Report is the structured outcome of one verification run.
type Report struct {
	// Subject names what was verified ("schedule jetson-tx2/shwfs/zc",
	// "layout", "trace", ...).
	Subject string
	// Checked counts the facts examined (tile pairs, buffer pairs, trace
	// events) so "zero findings" is distinguishable from "checked nothing".
	Checked int
	// Findings are the verified hazards, in discovery order.
	Findings []Finding
}

// OK reports whether the verification found no hazards.
func (r Report) OK() bool { return len(r.Findings) == 0 }

// add appends a finding.
func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// Merge folds another report into this one, summing the checked counts.
func (r *Report) Merge(o Report) {
	r.Checked += o.Checked
	r.Findings = append(r.Findings, o.Findings...)
}

// CountKind returns how many findings have the given kind.
func (r Report) CountKind(k Kind) int {
	n := 0
	for _, f := range r.Findings {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// String renders the report for CLIs and logs.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d checks", r.Subject, r.Checked)
	if r.OK() {
		b.WriteString(", no hazards")
		return b.String()
	}
	fmt.Fprintf(&b, ", %d hazards:", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}
