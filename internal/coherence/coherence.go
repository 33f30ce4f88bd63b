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
// hardware I/O coherence does. It satisfies gpu.MemPath.
type IOPort struct {
	name   string
	target *cache.Cache  // the CPU LLC
	extra  units.Latency // interconnect hop cost per request
	stats  memdev.Stats
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
	return &IOPort{name: name, target: target, extra: extra}
}

// Name returns the port name.
func (p *IOPort) Name() string { return p.name }

// count records one request in the port's traffic counters.
func (p *IOPort) count(a cache.Access) {
	if a.Size <= 0 {
		return
	}
	switch a.Kind {
	case cache.Read:
		p.stats.Reads++
		p.stats.BytesRead += a.Size
	case cache.Write:
		p.stats.Writes++
		p.stats.BytesWritten += a.Size
	case cache.Writeback:
		p.stats.Writebacks++
		p.stats.BytesWritten += a.Size
	}
}

// Do forwards the request into the CPU hierarchy with the interconnect
// latency added.
func (p *IOPort) Do(a cache.Access) cache.Result {
	if a.Size <= 0 {
		return cache.Result{}
	}
	p.count(a)
	r := p.target.Do(a)
	r.Latency += p.extra
	return r
}

// DoBatch services an ordered group of accesses through the CPU LLC's batch
// path. Latencies, counters and cache state are byte-identical to calling Do
// per access in order.
func (p *IOPort) DoBatch(accs []cache.Access, out []cache.Result, b *cache.Batch) {
	for i := range accs {
		p.count(accs[i])
	}
	p.target.DoBatch(accs, out, b)
	for i := range accs {
		if accs[i].Size > 0 {
			out[i].Latency += p.extra
		}
	}
}

// Stats returns the traffic the port has carried.
func (p *IOPort) Stats() memdev.Stats { return p.stats }

// ResetStats zeroes the counters.
func (p *IOPort) ResetStats() { p.stats = memdev.Stats{} }
