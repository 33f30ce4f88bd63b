package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"igpucomm/internal/telemetry"
)

// benchSpan prefixes the spans the benchmark opens around its own calls;
// every other span is the program's.
const benchSpan = "bench."

// splitAttrs are the span attributes that split one layer's spans into
// table rows: memo outcome, communication model and application.
var splitAttrs = map[string]bool{"cache": true, "model": true, "app": true}

// spanInfo is one finished span with its self time: its duration minus the
// part of its interval that its children cover.
type spanInfo struct {
	Name  string
	Attrs map[string]string
	Dur   time.Duration
	Self  time.Duration
	// Leaf marks a program span with no children that did work itself
	// (a memo hit or a singleflight wait is not work).
	Leaf bool
}

// key is the span's layer-table row: its name plus its split attributes.
func (s spanInfo) key() string {
	var parts []string
	for k, v := range s.Attrs {
		if splitAttrs[k] {
			parts = append(parts, k+"="+v)
		}
	}
	sort.Strings(parts)
	return strings.TrimSpace(s.Name + " " + strings.Join(parts, " "))
}

// ledger is a traced phase's spans reduced to self times.
type ledger []spanInfo

// analyze computes every span's self time from the tracer's spans.
func analyze(spans []*telemetry.Span) ledger {
	type interval struct{ start, end time.Duration }
	children := make(map[int64][]interval, len(spans))
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], interval{s.Start, s.Start + s.Duration()})
		}
	}
	out := make(ledger, 0, len(spans))
	for _, s := range spans {
		info := spanInfo{Name: s.Name, Attrs: map[string]string{}, Dur: s.Duration()}
		for _, a := range s.Attrs() {
			info.Attrs[a.Key] = a.Value
		}
		start, end := s.Start, s.Start+info.Dur
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered time.Duration
		cur := interval{start: -1, end: -1}
		for _, k := range kids {
			k.start, k.end = max(k.start, start), min(k.end, end)
			if k.end <= k.start {
				continue
			}
			if k.start > cur.end {
				if cur.end > cur.start {
					covered += cur.end - cur.start
				}
				cur = k
			} else if k.end > cur.end {
				cur.end = k.end
			}
		}
		if cur.end > cur.start {
			covered += cur.end - cur.start
		}
		info.Self = info.Dur - covered
		cache := info.Attrs["cache"]
		info.Leaf = len(kids) == 0 && !strings.HasPrefix(s.Name, benchSpan) &&
			cache != "hit" && cache != "shared"
		out = append(out, info)
	}
	return out
}

// sum totals the duration and self time of the spans named name whose
// attributes include every pair of attrs (key, value, key, value, ...).
func (l ledger) sum(name string, attrs ...string) (n int, dur, self time.Duration) {
next:
	for _, s := range l {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(attrs); i += 2 {
			if s.Attrs[attrs[i]] != attrs[i+1] {
				continue next
			}
		}
		n++
		dur += s.Dur
		self += s.Self
	}
	return n, dur, self
}

// leafTime is the summed duration of the leaf spans: the busy time of the
// layers that do the work, which divided by wall time is the parallelism.
func (l ledger) leafTime() time.Duration {
	var t time.Duration
	for _, s := range l {
		if s.Leaf {
			t += s.Dur
		}
	}
	return t
}

// meanDur is total/n, 0 for n == 0.
func meanDur(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// table renders the per-layer self-time table, heaviest self time first,
// with per-operation self time over ops operations.
func (l ledger) table(ops int) string {
	type row struct {
		key       string
		n         int
		dur, self time.Duration
	}
	rows := map[string]*row{}
	for _, s := range l {
		k := s.key()
		r := rows[k]
		if r == nil {
			r = &row{key: k}
			rows[k] = r
		}
		r.n++
		r.dur += s.Dur
		r.self += s.Self
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].self != sorted[j].self {
			return sorted[i].self > sorted[j].self
		}
		return sorted[i].key < sorted[j].key
	})
	var b strings.Builder
	fmt.Fprintf(&b, "-- per-layer self time (%d operations)\n", ops)
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "span\tspans\ttotal_ms\tself_ms\tself_ms/op\t\n")
	for _, r := range sorted {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.4f\t\n", r.key, r.n, ms(r.dur), ms(r.self),
			ms(meanDur(r.self, max(ops, 1))))
	}
	tw.Flush()
	return b.String()
}

// writeTrace writes the traced phase's Chrome trace JSON and its layer
// table under dir (nothing when dir is empty).
func writeTrace(dir string, o options, tr *telemetry.Tracer, table string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", o.Workload, o.Seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(table), 0o644); err != nil {
		return fmt.Errorf("write layer table: %w", err)
	}
	return nil
}
