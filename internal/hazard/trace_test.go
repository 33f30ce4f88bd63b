package hazard

import (
	"strings"
	"testing"
)

func ev(seq int, agent TraceAgent, op Op, path string, addr, size int64) Event {
	return Event{Seq: seq, Agent: agent, Op: op, Path: path, Addr: addr, Size: size}
}

func TestCheckTraceCleanPhases(t *testing.T) {
	// CPU produces a buffer, barrier, GPU consumes it: the ZC protocol.
	events := []Event{
		ev(0, TraceCPU, OpWrite, "pinned", 0, 256),
		ev(1, TraceCPU, OpBarrier, "", 0, 0),
		ev(2, TraceGPU, OpRead, "pinned", 0, 256),
		ev(3, TraceGPU, OpWrite, "pinned-wc", 4096, 64),
		ev(4, TraceGPU, OpBarrier, "", 0, 0),
		ev(5, TraceCPU, OpRead, "pinned", 4096, 64),
	}
	rep := CheckTrace("clean", events, TraceOptions{})
	if !rep.OK() {
		t.Fatalf("phase-separated trace must be clean, got:\n%s", rep)
	}
	if rep.Checked != len(events) {
		t.Fatalf("checked %d events, want %d", rep.Checked, len(events))
	}
}

func TestCheckTraceRAW(t *testing.T) {
	// GPU reads the line the CPU is concurrently writing: no barrier.
	events := []Event{
		ev(0, TraceCPU, OpWrite, "pinned", 128, 64),
		ev(1, TraceGPU, OpRead, "pinned", 128, 64),
	}
	rep := CheckTrace("raw", events, TraceOptions{})
	if rep.CountKind(RAW) != 1 || len(rep.Findings) != 1 {
		t.Fatalf("want exactly one RAW, got:\n%s", rep)
	}
	f := rep.Findings[0]
	if f.Seq != 0 || f.OtherSeq != 1 || f.Addr != 128 {
		t.Fatalf("RAW counterexample wrong: %+v", f)
	}
}

func TestCheckTraceWARAndWAW(t *testing.T) {
	events := []Event{
		ev(0, TraceCPU, OpRead, "pinned", 0, 64),
		ev(1, TraceGPU, OpWrite, "pinned", 0, 64), // WAR vs seq 0
		ev(2, TraceCPU, OpWrite, "pinned", 0, 64), // WAW vs seq 1
	}
	rep := CheckTrace("mixed", events, TraceOptions{})
	if rep.CountKind(WAR) != 1 || rep.CountKind(WAW) != 1 {
		t.Fatalf("want one WAR and one WAW, got:\n%s", rep)
	}
}

func TestCheckTraceDedupesPerLine(t *testing.T) {
	// A racing loop over the same line must report the line once.
	var events []Event
	events = append(events, ev(0, TraceCPU, OpWrite, "pinned", 0, 64))
	for i := 1; i <= 10; i++ {
		events = append(events, ev(i, TraceGPU, OpRead, "pinned", 0, 64))
	}
	rep := CheckTrace("loop", events, TraceOptions{})
	if rep.CountKind(RAW) != 1 {
		t.Fatalf("want deduped single RAW, got:\n%s", rep)
	}
}

func TestCheckTraceSharedScope(t *testing.T) {
	// The same race outside the declared shared ranges is out of scope.
	events := []Event{
		ev(0, TraceCPU, OpWrite, "pinned", 0, 64),
		ev(1, TraceGPU, OpRead, "pinned", 0, 64),
	}
	rep := CheckTrace("scoped", events, TraceOptions{Shared: []Range{{Addr: 1 << 20, Size: 4096}}})
	if !rep.OK() {
		t.Fatalf("race outside shared ranges must be ignored, got:\n%s", rep)
	}
}

func TestCheckTraceFlushOrdering(t *testing.T) {
	// CPU dirties a line in its cache; GPU reads it before any flush: the
	// software-coherence violation.
	stale := []Event{
		ev(0, TraceCPU, OpWrite, "cached", 64, 64),
		ev(1, TraceCPU, OpBarrier, "", 0, 0),
		ev(2, TraceGPU, OpRead, "cached", 64, 64),
	}
	rep := CheckTrace("stale", stale, TraceOptions{})
	if rep.CountKind(FlushOrder) != 1 {
		t.Fatalf("want a flush-order finding, got:\n%s", rep)
	}
	if !strings.Contains(rep.Findings[0].Detail, "no intervening cpu flush") {
		t.Fatalf("detail unhelpful: %s", rep.Findings[0].Detail)
	}

	// With the SC protocol's pre-kernel flush, the same trace is clean.
	flushed := []Event{
		ev(0, TraceCPU, OpWrite, "cached", 64, 64),
		ev(1, TraceCPU, OpFlush, "", 64, 64),
		ev(2, TraceCPU, OpBarrier, "", 0, 0),
		ev(3, TraceGPU, OpRead, "cached", 64, 64),
	}
	if rep := CheckTrace("flushed", flushed, TraceOptions{}); !rep.OK() {
		t.Fatalf("flushed trace must be clean, got:\n%s", rep)
	}

	// With hardware I/O coherence the dirty line is snooped, not stale.
	if rep := CheckTrace("coherent", stale, TraceOptions{IOCoherent: true}); !rep.OK() {
		t.Fatalf("io-coherent platform must not flag flush ordering, got:\n%s", rep)
	}
}

func TestCheckTraceFlushAll(t *testing.T) {
	events := []Event{
		ev(0, TraceCPU, OpWrite, "cached", 0, 256), // 4 dirty lines
		ev(1, TraceCPU, OpFlush, "", 0, 0),         // flush-all
		ev(2, TraceCPU, OpBarrier, "", 0, 0),
		ev(3, TraceGPU, OpRead, "cached", 0, 256),
	}
	if rep := CheckTrace("flush-all", events, TraceOptions{}); !rep.OK() {
		t.Fatalf("flush-all must clear every dirty line, got:\n%s", rep)
	}
}

func TestParseEvents(t *testing.T) {
	csv := "seq,agent,op,path,addr,size\n" +
		"# comment lines are skipped\n" +
		"0,cpu,write,cached,0,64\n" +
		"1,cpu,flush,,0,64\n" +
		"2,cpu,barrier,,0,0\n" +
		"3,gpu,read,cached,0,64\n"
	events, err := ParseEvents(strings.NewReader(csv))
	if err != nil {
		t.Fatalf("ParseEvents: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("want 4 events, got %d", len(events))
	}
	if rep := CheckTrace("fixture", events, TraceOptions{}); !rep.OK() {
		t.Fatalf("fixture must be clean, got:\n%s", rep)
	}

	if _, err := ParseEvents(strings.NewReader("0,martian,read,cached,0,4\n")); err == nil {
		t.Fatalf("unknown agent must error")
	}
}
