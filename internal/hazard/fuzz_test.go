package hazard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseTrace throws arbitrary bytes at the event-trace parser
// ParseEvents and holds it to three properties:
//
//  1. It never panics or hangs — any input either parses or returns an error.
//  2. Every event it accepts has a span CheckTrace can safely walk
//     (validateSpan), so a parsed trace can never drive the checker's
//     per-line loops into effectively unbounded iteration.
//  3. ParseEvents round-trips: re-serializing accepted events and reparsing
//     yields the same events.
//
// CheckTrace itself is exercised only on traces whose accepted spans are
// small, keeping each fuzz iteration fast.
func FuzzParseTrace(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "mutated_trace.csv"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("warp,instr,kind,path,addr,size\n0,0,read,cached,0,4\n1,0,write,pinned,64,4\n"))
	f.Add([]byte("seq,agent,op,path,addr,size\n0,cpu,write,pinned,0,64\n1,gpu,read,pinned,0,64\n"))
	f.Add([]byte("# comment\nseq,agent,op,path,addr,size\n0,cpu,barrier,,0,0\n1,gpu,flush,,0,0\n"))
	// Historic crashers: negative and overflowing spans, huge indices,
	// empty and whitespace-only lines, truncated rows.
	f.Add([]byte("0,cpu,read,pinned,-1,10\n"))
	f.Add([]byte("0,gpu,write,cached,1,9223372036854775807\n"))
	f.Add([]byte("0,0,read,cached,281474976710656,64\n"))
	f.Add([]byte("\n\n   \n0,cpu,read\n"))
	f.Add([]byte("seq,agent,op,path,addr,size\n0,cpu,flush,,5,-3\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := string(data)

		events, err := ParseEvents(strings.NewReader(in))
		if err != nil {
			return
		}
		checkAccepted(t, events)

		// Round-trip: what ParseEvents accepted must reparse identically.
		var sb strings.Builder
		for _, e := range events {
			fmt.Fprintf(&sb, "%d,%s,%s,%s,%d,%d\n", e.Seq, e.Agent, e.Op, e.Path, e.Addr, e.Size)
		}
		again, err := ParseEvents(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round-trip reparse failed: %v\ninput: %q", err, sb.String())
		}
		if len(again) != len(events) {
			t.Fatalf("round-trip: %d events became %d", len(events), len(again))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("round-trip event %d: %+v became %+v", i, events[i], again[i])
			}
		}

		// Replay through the checker only when the accepted spans are small
		// enough that the per-line loops stay trivially bounded.
		const maxFuzzSpan = 1 << 20
		for _, e := range events {
			if e.Addr+e.Size > maxFuzzSpan {
				return
			}
		}
		CheckTrace("fuzz", events, TraceOptions{})
		CheckTrace("fuzz-coherent", events, TraceOptions{IOCoherent: true, LineSize: 32})
	})
}

// checkAccepted asserts property 2: every parsed event is safe to replay.
func checkAccepted(t *testing.T, events []Event) {
	t.Helper()
	for i, e := range events {
		if err := validateSpan(e.Addr, e.Size); err != nil {
			t.Fatalf("ParseEvents accepted event %d with unsafe span: %v", i, err)
		}
	}
}
