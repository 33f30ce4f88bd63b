package gpu

import (
	"bufio"
	"fmt"
	"io"

	"igpucomm/internal/cache"
)

// Txn is one coalesced memory transaction of a kernel, as
// VisitTransactions reports it.
type Txn struct {
	Warp  int // issuing warp
	Instr int // the warp's instruction slot
	Kind  cache.Kind
	// Pinned says the transaction goes down the pinned (zero-copy) path
	// rather than through the issuing SM's L1.
	Pinned     bool
	Addr, Size int64
}

// Path names the transaction's route: "cached", "pinned" (an uncoalesced
// pinned read) or "pinned-wc" (a write-combined pinned store).
func (t Txn) Path() string {
	switch {
	case !t.Pinned:
		return "cached"
	case t.Kind == cache.Write:
		return "pinned-wc"
	default:
		return "pinned"
	}
}

// VisitTransactions runs the compile pass over the kernel — the same
// validation, coalescing and issue order as a Launcher launch — and calls
// visit once per transaction, in the order a launch issues them: SM by SM,
// resident batch by batch, slot-major across a batch's warps. It touches no
// cache and no clock. Each memory warp-instruction is walked, derived ones
// expanded from the warp template, as soon as it joins the stream, and then
// cleared, so only one warp-instruction's transactions are kept at a time.
func (g *GPU) VisitTransactions(k Kernel, visit func(Txn)) error {
	var ck CompiledKernel
	g.comp.onMem = func(warp, slot int) {
		ck.walk(ck.ops, &g.replay.accs, func(path uint8, accs []cache.Access) {
			for _, a := range accs {
				visit(Txn{Warp: warp, Instr: slot, Kind: a.Kind, Pinned: path == pathPinned, Addr: a.Addr, Size: a.Size})
			}
		})
		ck.clearStream()
	}
	defer func() { g.comp.onMem = nil }()
	return g.CompileInto(k, &ck)
}

// TraceTransactions writes the kernel's coalesced transactions as CSV, one
// row per transaction in issue order (see VisitTransactions):
//
//	warp,instr,kind,path,addr,size
//
// without touching the caches or the clock — a tool for exporting access
// traces to external analyzers.
func (g *GPU) TraceTransactions(k Kernel, w io.Writer) error {
	// bufio.Writer errors are sticky, so the row writes drop theirs and
	// Flush reports the first.
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "warp,instr,kind,path,addr,size")
	err := g.VisitTransactions(k, func(t Txn) {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d\n", t.Warp, t.Instr, t.Kind, t.Path(), t.Addr, t.Size)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
