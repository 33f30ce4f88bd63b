// Package heatmap attributes simulated memory traffic to fixed-size page
// buckets and rolls the buckets up into per-buffer heat summaries. The
// accumulator sits behind nil-checked hooks on the cache/GPU hot path: every
// entry-level access (CPU L1, per-SM GPU L1, pinned/uncached ports) records
// one sample, so a run's address-level behaviour — which buffers are hot,
// how dense their touches are, how quickly lines are re-referenced — becomes
// visible without perturbing the simulation itself.
//
// The record path is allocation-free by construction: all counters live in
// preallocated struct-of-arrays slices sized against the platform's memory
// extent, and recording is index arithmetic plus a handful of integer adds.
package heatmap

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"igpucomm/internal/mmu"
)

// Accumulator counts per-page traffic in a struct-of-arrays layout. One page
// bucket covers pageSize bytes (the platform's migration page, 64KiB on the
// catalogued boards); the bucket count is fixed at construction from the
// address-space extent, so the record path never grows a slice.
type Accumulator struct {
	pageShift uint
	pageSize  int64
	extent    int64
	// clock counts demand records (not writebacks): the reuse summary is the
	// clock delta between consecutive demand touches of the same page, a
	// cheap stand-in for reuse distance that preserves the hot/cold ordering.
	clock int64
	// hi is the highest page index recorded since the last Reset (-1 when no
	// record has landed). Workloads touch a few MB of a multi-GiB address
	// space, so Reset clearing only [0, hi] instead of every bucket is the
	// difference between microseconds and milliseconds per model run.
	hi int64

	reads         []int64
	writes        []int64
	misses        []int64
	writebacks    []int64
	accessedBytes []int64 // bytes requested by demand records
	movedBytes    []int64 // bytes that crossed below the recording level: miss fills + writebacks + uncached traffic
	lastTouch     []int64 // clock of the page's most recent demand record (0 = never)
	reuseSum      []int64
	reuseCnt      []int64
}

// New builds an accumulator covering [0, extent) with pageSize-byte buckets.
// pageSize must be a positive power of two and extent positive, mirroring the
// cache and migrator constructors' contracts.
func New(extent, pageSize int64) *Accumulator {
	if extent <= 0 {
		panic(fmt.Sprintf("heatmap: extent %d must be positive", extent))
	}
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("heatmap: page size %d must be a positive power of two", pageSize))
	}
	pages := (extent + pageSize - 1) / pageSize
	return &Accumulator{
		pageShift:     uint(bits.TrailingZeros64(uint64(pageSize))),
		pageSize:      pageSize,
		extent:        extent,
		hi:            -1,
		reads:         make([]int64, pages),
		writes:        make([]int64, pages),
		misses:        make([]int64, pages),
		writebacks:    make([]int64, pages),
		accessedBytes: make([]int64, pages),
		movedBytes:    make([]int64, pages),
		lastTouch:     make([]int64, pages),
		reuseSum:      make([]int64, pages),
		reuseCnt:      make([]int64, pages),
	}
}

// PageSize returns the bucket granularity.
func (a *Accumulator) PageSize() int64 { return a.pageSize }

// Pages returns the bucket count.
func (a *Accumulator) Pages() int { return len(a.reads) }

// Clock returns the number of demand records taken since the last Reset.
func (a *Accumulator) Clock() int64 { return a.clock }

// Record notes one demand access: addr/size locate the traffic, write
// distinguishes stores, miss says the access was serviced below the
// recording level (a cache miss, or inherently uncached traffic on the
// pinned path, where every access is a miss by construction).
//
//igpu:hot Record runs once per cache line on the simulator's access path; it must stay allocation-free.
func (a *Accumulator) Record(addr, size int64, write, miss bool) {
	page := uint64(addr) >> a.pageShift
	if page >= uint64(len(a.reads)) {
		return
	}
	if int64(page) > a.hi {
		a.hi = int64(page)
	}
	a.clock++
	if write {
		a.writes[page]++
	} else {
		a.reads[page]++
	}
	a.accessedBytes[page] += size
	if miss {
		a.misses[page]++
		a.movedBytes[page] += size
	}
	if last := a.lastTouch[page]; last != 0 {
		a.reuseSum[page] += a.clock - last
		a.reuseCnt[page]++
	}
	a.lastTouch[page] = a.clock
}

// RecordRun notes n demand accesses of size bytes each, at addresses on
// addr's page, in closed form: the counters, the clock and the reuse
// summary end exactly as n Record calls leave them.
//
//igpu:hot RecordRun runs once per same-page run of pinned transactions on the replay path; it must stay allocation-free.
func (a *Accumulator) RecordRun(addr, size int64, write, miss bool, n int64) {
	page := uint64(addr) >> a.pageShift
	if n <= 0 || page >= uint64(len(a.reads)) {
		return
	}
	if int64(page) > a.hi {
		a.hi = int64(page)
	}
	if write {
		a.writes[page] += n
	} else {
		a.reads[page] += n
	}
	a.accessedBytes[page] += size * n
	if miss {
		a.misses[page] += n
		a.movedBytes[page] += size * n
	}
	// Each record after the first reuses the page one clock tick later.
	reuse, cnt := n-1, n-1
	if last := a.lastTouch[page]; last != 0 {
		reuse, cnt = reuse+a.clock+1-last, cnt+1
	}
	a.reuseSum[page] += reuse
	a.reuseCnt[page] += cnt
	a.clock += n
	a.lastTouch[page] = a.clock
}

// Page returns the page bucket addr falls in; RecordRun takes a run on one.
func (a *Accumulator) Page(addr int64) int64 { return int64(uint64(addr) >> a.pageShift) }

// RecordWriteback notes a dirty line leaving the recording level (capacity
// eviction or explicit flush). Writebacks move bytes but are not program
// touches, so the reuse clock does not advance.
//
//igpu:hot RecordWriteback runs on the simulator's eviction/flush path; it must stay allocation-free.
func (a *Accumulator) RecordWriteback(addr, size int64) {
	page := uint64(addr) >> a.pageShift
	if page >= uint64(len(a.reads)) {
		return
	}
	if int64(page) > a.hi {
		a.hi = int64(page)
	}
	a.writebacks[page]++
	a.movedBytes[page] += size
}

// Reset zeroes every counter, keeping the allocations for reuse. Only the
// buckets up to the recorded high-water mark are cleared, so resetting
// between model runs costs proportional to the footprint actually touched,
// not the platform's whole address space.
func (a *Accumulator) Reset() {
	a.clock = 0
	if a.hi < 0 {
		return
	}
	n := a.hi + 1
	clear(a.reads[:n])
	clear(a.writes[:n])
	clear(a.misses[:n])
	clear(a.writebacks[:n])
	clear(a.accessedBytes[:n])
	clear(a.movedBytes[:n])
	clear(a.lastTouch[:n])
	clear(a.reuseSum[:n])
	clear(a.reuseCnt[:n])
	a.hi = -1
}

// BufferHeat is one buffer's rolled-up heat summary. All counters are sums
// over the page buckets overlapping the buffer; a bucket straddling a buffer
// boundary (allocations align to cache lines, not pages) is attributed to
// every buffer it overlaps, which slightly over-counts boundary pages but
// never loses traffic.
type BufferHeat struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Size int64  `json:"size"`

	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Misses     int64 `json:"misses"`
	Writebacks int64 `json:"writebacks"`

	// AccessedBytes is the demand traffic requested against the buffer;
	// MovedBytes is what actually crossed below the entry caches (miss
	// fills, writebacks, uncached/pinned transactions).
	AccessedBytes int64 `json:"accessed_bytes"`
	MovedBytes    int64 `json:"moved_bytes"`

	// HitRate is the fraction of demand records serviced at the entry level.
	HitRate float64 `json:"hit_rate"`
	// TouchedPages of Pages overlapping buckets saw at least one record;
	// TouchDensity is their ratio — low density flags sparse access.
	TouchedPages int     `json:"touched_pages"`
	Pages        int     `json:"pages"`
	TouchDensity float64 `json:"touch_density"`
	// MeanReuse is the average clock delta between consecutive demand
	// touches of the same page (0 = no page touched twice). Small values
	// mean tight temporal locality.
	MeanReuse float64 `json:"mean_reuse"`
	// HeatScore is AccessedBytes per buffer byte — the access intensity the
	// hot/cold classification keys on.
	HeatScore float64 `json:"heat_score"`
}

// Touches returns the demand record count.
func (h BufferHeat) Touches() int64 { return h.Reads + h.Writes }

// Snapshot rolls the page buckets up into one BufferHeat per live buffer,
// hottest first (ties broken by name so the order is deterministic).
func (a *Accumulator) Snapshot(bufs []mmu.Buffer) []BufferHeat {
	if len(bufs) == 0 {
		return nil
	}
	out := make([]BufferHeat, 0, len(bufs))
	for _, b := range bufs {
		h := a.rangeHeat(b.Addr, b.End())
		h.Name = b.Name
		h.Kind = b.Kind.String()
		h.Size = b.Size
		if b.Size > 0 {
			h.HeatScore = float64(h.AccessedBytes) / float64(b.Size)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HeatScore != out[j].HeatScore {
			return out[i].HeatScore > out[j].HeatScore
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Totals rolls the whole address space into one summary (Name "(all)").
func (a *Accumulator) Totals() BufferHeat {
	h := a.rangeHeat(0, a.extent)
	h.Name = "(all)"
	h.Size = a.extent
	if a.extent > 0 {
		h.HeatScore = float64(h.AccessedBytes) / float64(a.extent)
	}
	return h
}

// rangeHeat sums the buckets overlapping [lo, hi).
func (a *Accumulator) rangeHeat(lo, hi int64) BufferHeat {
	var h BufferHeat
	if hi <= lo {
		return h
	}
	first := lo >> a.pageShift
	last := (hi - 1) >> a.pageShift
	if first < 0 {
		first = 0
	}
	if max := int64(len(a.reads) - 1); last > max {
		last = max
	}
	var reuseSum, reuseCnt int64
	for p := first; p <= last; p++ {
		h.Pages++
		h.Reads += a.reads[p]
		h.Writes += a.writes[p]
		h.Misses += a.misses[p]
		h.Writebacks += a.writebacks[p]
		h.AccessedBytes += a.accessedBytes[p]
		h.MovedBytes += a.movedBytes[p]
		if a.reads[p]+a.writes[p] > 0 {
			h.TouchedPages++
		}
		reuseSum += a.reuseSum[p]
		reuseCnt += a.reuseCnt[p]
	}
	if t := h.Touches(); t > 0 {
		h.HitRate = 1 - float64(h.Misses)/float64(t)
	}
	if h.Pages > 0 {
		h.TouchDensity = float64(h.TouchedPages) / float64(h.Pages)
	}
	if reuseCnt > 0 {
		h.MeanReuse = float64(reuseSum) / float64(reuseCnt)
	}
	return h
}

// Render draws the per-buffer heat table as ASCII, hottest buffer first,
// with a bar proportional to each buffer's heat score. Deterministic for a
// deterministic input order.
func Render(heats []BufferHeat) string {
	if len(heats) == 0 {
		return "heatmap: no buffers recorded\n"
	}
	maxScore := 0.0
	nameW := len("buffer")
	for _, h := range heats {
		if h.HeatScore > maxScore {
			maxScore = h.HeatScore
		}
		if len(h.Name) > nameW {
			nameW = len(h.Name)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s %-8s %10s %6s %6s %10s %8s\n",
		nameW, "buffer", "kind", "accessed", "hit%", "touch%", "moved", "heat")
	for _, h := range heats {
		bar := ""
		if maxScore > 0 {
			n := int(h.HeatScore / maxScore * 20)
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%-*s %-8s %10d %6.1f %6.1f %10d %8.2f  %s\n",
			nameW, h.Name, h.Kind, h.AccessedBytes, h.HitRate*100, h.TouchDensity*100,
			h.MovedBytes, h.HeatScore, bar)
	}
	return b.String()
}
