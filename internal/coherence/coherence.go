// Package coherence models hardware I/O coherence, the one coherence
// mechanism of a CPU-iGPU SoC that needs its own memory route:
//
//   - Hardware I/O coherence (Jetson AGX Xavier): the iGPU's pinned-path
//     requests snoop the CPU's LLC directly. IOPort implements that route:
//     it forwards GPU requests into the CPU cache hierarchy with an
//     interconnect latency adder, so the GPU observes CPU-LLC-speed data
//     instead of uncached DRAM — the reason ZC remains usable on Xavier
//     (Table I: 32.29 GB/s vs TX2's 1.28 GB/s).
//
// The GPU's compiled replay services pinned transactions through DoRun, a
// run at a time. A pinned read is one uncoalesced 4-byte transaction per
// lane, so consecutive lanes fall in the same 64 B CPU-LLC line. DoRun
// services the run's head with Do, exactly as a lone request, and takes
// every following request of the same kind and size that lies within the
// head's line. After the head, that line is resident (a fill below the LLC
// never evicts from it), so each later request is a hit on it: no eviction,
// no lower-level traffic, latency HitLatency plus the hop. cache.RepeatHit
// applies those hits in closed form and the port's counters grow by the
// run's length in one step, so the port, the LLC (LRU clock, lastUse,
// dirty bit, counters, heat) and DRAM end exactly as a Do per request
// leaves them.
//
// The other two mechanisms need nothing here. Software coherence (standard
// copy) is range flushes of the shared buffers around each launch, which the
// communication models issue through the CPU and GPU FlushRange methods. On
// devices without coherence support (Jetson Nano, TX2), pinned buffers are
// mapped uncacheable on both sides and take the uncached ports in
// internal/memdev.
package coherence

import (
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/memdev"
	"igpucomm/internal/units"
)

// IOPort routes device (GPU) memory requests through the CPU's LLC, the way
// hardware I/O coherence does. It satisfies gpu.PinnedPath.
type IOPort struct {
	name     string
	target   *cache.Cache  // the CPU LLC
	extra    units.Latency // interconnect hop cost per request
	lineSize int64         // the target's line size
	stats    memdev.Stats
}

// NewIOPort builds the coherence port. target is the CPU LLC; extra is the
// per-request interconnect latency. Panics on nil target or negative latency
// (static wiring errors).
func NewIOPort(name string, target *cache.Cache, extra units.Latency) *IOPort {
	if target == nil {
		panic(fmt.Sprintf("ioport %s: nil target", name))
	}
	if extra < 0 {
		panic(fmt.Sprintf("ioport %s: negative latency", name))
	}
	return &IOPort{name: name, target: target, extra: extra, lineSize: target.Config().LineSize}
}

// Name returns the port name.
func (p *IOPort) Name() string { return p.name }

// count records n requests like a in the port's traffic counters.
func (p *IOPort) count(a cache.Access, n int64) {
	switch a.Kind {
	case cache.Read:
		p.stats.Reads += n
		p.stats.BytesRead += a.Size * n
	case cache.Write:
		p.stats.Writes += n
		p.stats.BytesWritten += a.Size * n
	case cache.Writeback:
		p.stats.Writebacks += n
		p.stats.BytesWritten += a.Size * n
	}
}

// Do forwards the request into the CPU hierarchy with the interconnect
// latency added.
func (p *IOPort) Do(a cache.Access) cache.Result {
	if a.Size <= 0 {
		return cache.Result{}
	}
	p.count(a, 1)
	r := p.target.Do(a)
	r.Latency += p.extra
	return r
}

// DoRun services accs[0] with Do and then every following request of the
// same kind and size within the CPU-LLC line accs[0] lies in (none when it
// spans two lines), as cache hits in closed form. It returns how many
// requests it serviced, the first one's latency and each later one's; the
// port, the LLC and DRAM end exactly as a Do per request leaves them (see
// the package comment).
func (p *IOPort) DoRun(accs []cache.Access) (n int, first, rest units.Latency) {
	a := accs[0]
	first = p.Do(a).Latency
	lo := a.Addr &^ (p.lineSize - 1)
	hi := lo + p.lineSize - a.Size // the last start address within the line
	n = 1
	if a.Size > 0 && a.Addr <= hi {
		for n < len(accs) && accs[n].Kind == a.Kind && accs[n].Size == a.Size && accs[n].Addr >= lo && accs[n].Addr <= hi {
			n++
		}
	}
	if n > 1 {
		p.count(a, int64(n-1))
		rest = p.target.RepeatHit(a, int64(n-1)).Latency + p.extra
	}
	return n, first, rest
}

// Stats returns the traffic the port has carried.
func (p *IOPort) Stats() memdev.Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *IOPort) ResetStats() { p.stats = memdev.Stats{} }
