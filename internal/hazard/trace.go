package hazard

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"igpucomm/internal/faults"
)

// faultTraceParse mangles trace bytes before parsing — the stand-in for a
// truncated or bit-rotted trace file. The parser's validation must reject
// whatever survives mangling; the fuzz suite holds it to that.
var faultTraceParse = faults.Register("hazard.trace.parse",
	"trace CSV bytes entering the parser",
	faults.CanError|faults.CanCorrupt|faults.CanTruncate)

// faultTraceReader applies the trace-parse fault point to a reader's bytes.
// With injection off it returns the reader untouched (no extra copy).
func faultTraceReader(r io.Reader) (io.Reader, error) {
	if !faults.Enabled() {
		return r, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	data, err = faults.FireData(faultTraceParse, data)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(data), nil
}

// TraceAgent identifies the side that issued a trace event.
type TraceAgent int

// Trace agents.
const (
	TraceCPU TraceAgent = 0
	TraceGPU TraceAgent = 1
)

func (a TraceAgent) String() string { return agentName(int(a)) }

// Op is a trace event's operation.
type Op int

// Trace operations.
const (
	// OpRead and OpWrite are memory accesses.
	OpRead Op = iota
	OpWrite
	// OpFlush is a software-coherence cache flush by the issuing agent
	// (writeback + invalidate; Size 0 means flush-all).
	OpFlush
	// OpBarrier is a global synchronization point ordering everything
	// before it against everything after it (the phase barrier, a kernel
	// launch boundary, a cudaDeviceSynchronize).
	OpBarrier
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Event is one replayed trace record.
type Event struct {
	Seq   int
	Agent TraceAgent
	Op    Op
	// Path is the route the access took: "cached" (through the agent's
	// cache hierarchy), "pinned" (uncached zero-copy), or "pinned-wc"
	// (write-combined store). Empty for flushes and barriers.
	Path string
	Addr int64
	Size int64
}

// Range is a half-open address interval [Addr, Addr+Size).
type Range struct {
	Addr, Size int64
}

// End returns the first address past the range.
func (r Range) End() int64 { return r.Addr + r.Size }

func (r Range) contains(addr int64) bool { return addr >= r.Addr && addr < r.End() }

// TraceOptions scope the trace checker.
type TraceOptions struct {
	// LineSize is the conflict granularity in bytes (0 means 64 — the
	// cache line size of every catalogued device).
	LineSize int64
	// Shared restricts cross-agent hazard detection to these address
	// ranges (the shared pinned buffers). Nil means every address is in
	// scope.
	Shared []Range
	// IOCoherent disables the flush-ordering check: with hardware I/O
	// coherence the GPU snoops the CPU LLC, so a dirty CPU line is not a
	// stale read (the Xavier wiring, internal/coherence.IOPort).
	IOCoherent bool
}

func (o TraceOptions) line() int64 {
	if o.LineSize > 0 {
		return o.LineSize
	}
	return 64
}

func (o TraceOptions) inShared(addr int64) bool {
	if len(o.Shared) == 0 {
		return true
	}
	for _, r := range o.Shared {
		if r.contains(addr) {
			return true
		}
	}
	return false
}

// lineState is what each agent did to one line within the current epoch.
type lineState struct {
	read, wrote       bool
	readSeq, writeSeq int
}

// CheckTrace replays a transaction trace and reports data hazards:
//
//   - RAW/WAR/WAW: two accesses to the same line by different agents with
//     at least one write and no barrier between them. Barriers delimit
//     epochs; accesses in the same epoch by different agents are concurrent.
//   - FlushOrder: an access reads a line the other agent dirtied in its
//     cache (a cached-path write) with no intervening flush by that agent —
//     the software-coherence protocol violation internal/coherence exists
//     to prevent. Suppressed when TraceOptions.IOCoherent is set.
//
// Findings are deduplicated per (line, kind): a hazardous loop reports each
// broken line once, not once per iteration.
func CheckTrace(subject string, events []Event, opt TraceOptions) Report {
	rep := Report{Subject: "trace " + subject}
	line := opt.line()

	epoch := 0
	cur := make(map[int64]*[2]lineState) // line -> per-agent state, this epoch
	dirty := [2]map[int64]int{{}, {}}    // agent -> line -> dirtying seq
	seen := make(map[[2]int64]bool)      // (line, kind) already reported

	report := func(k Kind, lineNo int64, firstSeq, secondSeq int, detail string) {
		key := [2]int64{lineNo, int64(k)}
		if seen[key] {
			return
		}
		seen[key] = true
		rep.add(Finding{
			Kind: k, Phase: epoch, Tile: -1, OtherTile: -1,
			Addr: lineNo * line, Size: line,
			Seq: firstSeq, OtherSeq: secondSeq,
			Detail: detail,
		})
	}

	for _, e := range events {
		rep.Checked++
		switch e.Op {
		case OpBarrier:
			cur = make(map[int64]*[2]lineState)
			epoch++
			continue
		case OpFlush:
			d := dirty[int(e.Agent)]
			if e.Size <= 0 {
				dirty[int(e.Agent)] = map[int64]int{}
				continue
			}
			for ln := e.Addr / line; ln <= (e.Addr+e.Size-1)/line; ln++ {
				delete(d, ln)
			}
			continue
		}
		if e.Size <= 0 {
			continue
		}
		me := int(e.Agent)
		other := 1 - me
		first := e.Addr / line
		last := (e.Addr + e.Size - 1) / line
		for ln := first; ln <= last; ln++ {
			// Flush-ordering: reading a line the other side holds dirty.
			if e.Op == OpRead && !opt.IOCoherent {
				if dseq, ok := dirty[other][ln]; ok {
					report(FlushOrder, ln, dseq, e.Seq, fmt.Sprintf(
						"%s reads line 0x%x (seq %d) dirtied by %s cached write (seq %d) with no intervening %s flush",
						e.Agent, ln*line, e.Seq, TraceAgent(other), dseq, TraceAgent(other)))
				}
			}
			if e.Op == OpWrite && e.Path == "cached" {
				dirty[me][ln] = e.Seq
			}

			// Cross-agent same-epoch conflicts on shared ranges.
			if !opt.inShared(ln * line) {
				continue
			}
			st := cur[ln]
			if st == nil {
				st = &[2]lineState{}
				cur[ln] = st
			}
			o := st[other]
			switch e.Op {
			case OpRead:
				if o.wrote {
					report(RAW, ln, o.writeSeq, e.Seq, fmt.Sprintf(
						"epoch %d: %s read of line 0x%x (seq %d) races %s write (seq %d) — no barrier between them",
						epoch, e.Agent, ln*line, e.Seq, TraceAgent(other), o.writeSeq))
				}
				if !st[me].read {
					st[me].read = true
					st[me].readSeq = e.Seq
				}
			case OpWrite:
				if o.wrote {
					report(WAW, ln, o.writeSeq, e.Seq, fmt.Sprintf(
						"epoch %d: %s write of line 0x%x (seq %d) races %s write (seq %d) — no barrier between them",
						epoch, e.Agent, ln*line, e.Seq, TraceAgent(other), o.writeSeq))
				} else if o.read {
					report(WAR, ln, o.readSeq, e.Seq, fmt.Sprintf(
						"epoch %d: %s write of line 0x%x (seq %d) races %s read (seq %d) — no barrier between them",
						epoch, e.Agent, ln*line, e.Seq, TraceAgent(other), o.readSeq))
				}
				if !st[me].wrote {
					st[me].wrote = true
					st[me].writeSeq = e.Seq
				}
			}
		}
	}
	return rep
}

// maxTraceSpan bounds addr+size for any parsed event. 2^48 covers every
// physical address a catalogued SoC can emit with a wide margin; anything
// larger is a corrupt trace, and admitting it would make CheckTrace's
// per-line loops walk on the order of 2^40 lines — an effective hang on
// attacker-shaped input.
const maxTraceSpan = int64(1) << 48

// validateSpan rejects the [addr, addr+size) spans CheckTrace cannot safely
// walk: negative addresses or sizes, spans that overflow int64, and spans
// past maxTraceSpan.
func validateSpan(addr, size int64) error {
	switch {
	case addr < 0:
		return fmt.Errorf("negative addr %d", addr)
	case size < 0:
		return fmt.Errorf("negative size %d", size)
	case size > maxTraceSpan || addr > maxTraceSpan-size:
		return fmt.Errorf("span [%d, %d+%d) exceeds %d", addr, addr, size, maxTraceSpan)
	}
	return nil
}

// ParseEvents reads the checker's own event CSV — header
// "seq,agent,op,path,addr,size" with agent cpu|gpu and op
// read|write|flush|barrier — the format test fixtures and external tools
// use to feed full multi-agent traces in.
func ParseEvents(r io.Reader) ([]Event, error) {
	r, err := faultTraceReader(r)
	if err != nil {
		return nil, fmt.Errorf("hazard: events: %w", err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var events []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.HasPrefix(text, "seq,") { // header (comments may precede it)
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != 6 {
			return nil, fmt.Errorf("hazard: events line %d: want 6 fields, got %d", lineNo, len(f))
		}
		seq, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("hazard: events line %d: bad seq %q", lineNo, f[0])
		}
		var agent TraceAgent
		switch f[1] {
		case "cpu":
			agent = TraceCPU
		case "gpu":
			agent = TraceGPU
		default:
			return nil, fmt.Errorf("hazard: events line %d: unknown agent %q", lineNo, f[1])
		}
		op, err := parseOp(f[2])
		if err != nil {
			return nil, fmt.Errorf("hazard: events line %d: %w", lineNo, err)
		}
		addr, err1 := strconv.ParseInt(f[4], 10, 64)
		size, err2 := strconv.ParseInt(f[5], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("hazard: events line %d: bad addr/size %q/%q", lineNo, f[4], f[5])
		}
		if err := validateSpan(addr, size); err != nil {
			return nil, fmt.Errorf("hazard: events line %d: %w", lineNo, err)
		}
		events = append(events, Event{Seq: seq, Agent: agent, Op: op, Path: f[3], Addr: addr, Size: size})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hazard: events: %w", err)
	}
	return events, nil
}

func parseOp(s string) (Op, error) {
	switch s {
	case "read":
		return OpRead, nil
	case "write":
		return OpWrite, nil
	case "flush":
		return OpFlush, nil
	case "barrier":
		return OpBarrier, nil
	default:
		return 0, fmt.Errorf("unknown op %q", s)
	}
}
