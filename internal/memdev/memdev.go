// Package memdev models the physically shared system memory of an embedded
// CPU-iGPU SoC, plus the distinct paths through which agents reach it:
//
//   - cacheable ports (behind the CPU or GPU cache hierarchies),
//   - the uncached pinned port zero-copy uses on devices without hardware
//     I/O coherence (Jetson Nano, TX2), and
//   - nothing else: the I/O-coherence path lives in internal/coherence since
//     it routes through the *CPU's* LLC rather than straight to DRAM.
//
// The device itself is purely an accounting and latency model. Sustained
// bandwidth effects (a streaming kernel being DRAM-bound, or CPU and GPU
// contending during overlapped zero-copy phases) are applied analytically by
// the timing layer using the byte counters collected here together with the
// Share arbiter.
package memdev

import (
	"fmt"

	"igpucomm/internal/cache"
	"igpucomm/internal/units"
)

// Config describes the DRAM device.
type Config struct {
	Name      string
	Latency   units.Latency        // demand-access latency seen by a cacheable port
	Bandwidth units.BytesPerSecond // peak sustained bandwidth
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("memdev: dram %s: negative latency", c.Name)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("memdev: dram %s: bandwidth must be positive", c.Name)
	}
	return nil
}

// Stats counts traffic at the DRAM device or at one of its ports.
type Stats struct {
	Reads        int64
	Writes       int64
	Writebacks   int64
	BytesRead    int64
	BytesWritten int64
}

// Bytes is the total traffic in both directions.
func (s Stats) Bytes() int64 { return s.BytesRead + s.BytesWritten }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.Writebacks += other.Writebacks
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
}

func (s *Stats) count(a cache.Access) {
	switch a.Kind {
	case cache.Read:
		s.Reads++
		s.BytesRead += a.Size
	case cache.Write:
		// Write-allocate hierarchies fetch the line on a write miss, so a
		// demand write reaching DRAM still *reads* the line; the dirty data
		// returns later as a writeback. Uncached ports override this.
		s.Writes++
		s.BytesRead += a.Size
	case cache.Writeback:
		s.Writebacks++
		s.BytesWritten += a.Size
	}
}

// DRAM is the shared memory device. It terminates every cache hierarchy in
// the SoC. Not safe for concurrent use.
type DRAM struct {
	cfg   Config
	stats Stats
}

// New builds the device; it panics on invalid configuration (static wiring).
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &DRAM{cfg: cfg}
}

// Name returns the device name.
func (d *DRAM) Name() string { return d.cfg.Name }

// Config returns the device configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Do services an access at the device's demand latency. Writebacks are
// latency-free (posted) but counted.
func (d *DRAM) Do(a cache.Access) cache.Result {
	if a.Size <= 0 {
		return cache.Result{}
	}
	d.stats.count(a)
	if a.Kind == cache.Writeback {
		return cache.Result{}
	}
	return cache.Result{Latency: d.cfg.Latency}
}

// Stats returns a snapshot of device-level counters.
func (d *DRAM) Stats() Stats { return d.stats }

// ResetStats zeroes the device counters.
func (d *DRAM) ResetStats() { d.stats = Stats{} }

// Port is a named window onto the DRAM with its own counters, at the
// device's latency. Each cache hierarchy (CPU, GPU) reaches memory through
// its own port so the profiler can attribute traffic.
type Port struct {
	name  string
	dram  *DRAM
	stats Stats
}

// NewPort creates a port.
func (d *DRAM) NewPort(name string) *Port {
	return &Port{name: name, dram: d}
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Do counts the access at the port and forwards it to the device.
func (p *Port) Do(a cache.Access) cache.Result {
	if a.Size <= 0 {
		return cache.Result{}
	}
	p.stats.count(a)
	return p.dram.Do(a)
}

// Stats returns the port's counters.
func (p *Port) Stats() Stats { return p.stats }

// ResetStats zeroes the port's counters (device counters are untouched).
func (p *Port) ResetStats() { p.stats = Stats{} }

// UncachedPort models the pinned, cache-bypassing path zero-copy uses on
// devices without hardware I/O coherence. Reads pay the full uncached DRAM
// latency; writes are cheaper (hardware write-combining buffers post them),
// and, unlike the cacheable path, a demand write moves data *to* memory
// (there is no allocate-on-write).
type UncachedPort struct {
	name     string
	dram     *DRAM
	latency  units.Latency // demand read latency
	writeLat units.Latency // posted write latency
	stats    Stats
}

// NewUncachedPortRW creates the pinned path with distinct read and write
// latencies.
func (d *DRAM) NewUncachedPortRW(name string, readLat, writeLat units.Latency) *UncachedPort {
	return &UncachedPort{name: name, dram: d, latency: readLat, writeLat: writeLat}
}

// Name returns the port name.
func (p *UncachedPort) Name() string { return p.name }

// Do services an uncached access.
func (p *UncachedPort) Do(a cache.Access) cache.Result {
	return cache.Result{Latency: p.serve(a, 1)}
}

// DoRun services accs[0] and every following access of the same kind and
// size: an uncached access's latency and counters depend on nothing else,
// so the run is serviced in one step. It returns how many accesses it
// serviced, the first one's latency and each later one's (the same); the
// port and DRAM counters end exactly as a Do per access leaves them.
func (p *UncachedPort) DoRun(accs []cache.Access) (n int, first, rest units.Latency) {
	a := accs[0]
	n = 1
	for n < len(accs) && accs[n].Kind == a.Kind && accs[n].Size == a.Size {
		n++
	}
	lat := p.serve(a, int64(n))
	return n, lat, lat
}

// serve counts n accesses like a and returns the latency of each.
func (p *UncachedPort) serve(a cache.Access, n int64) units.Latency {
	if a.Size <= 0 {
		return 0
	}
	if a.Kind == cache.Read {
		p.stats.Reads += n
		p.stats.BytesRead += a.Size * n
		p.dram.stats.Reads += n
		p.dram.stats.BytesRead += a.Size * n
		return p.latency
	}
	// Uncached writes (demand or writeback) go straight to memory through
	// the write-combining buffer.
	p.stats.Writes += n
	p.stats.BytesWritten += a.Size * n
	p.dram.stats.Writes += n
	p.dram.stats.BytesWritten += a.Size * n
	return p.writeLat
}

// Stats returns the port's counters.
func (p *UncachedPort) Stats() Stats { return p.stats }

// ResetStats zeroes the port's counters.
func (p *UncachedPort) ResetStats() { p.stats = Stats{} }
