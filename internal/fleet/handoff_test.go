package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"igpucomm/internal/framework"
	"igpucomm/internal/perfmodel"
	"igpucomm/internal/units"
)

// handoffChar builds a characterization that survives the persist round trip.
func handoffChar(platform string) framework.Characterization {
	return framework.Characterization{
		Platform:            platform,
		Thresholds:          perfmodel.Thresholds{CPUCache: 0.10, GPUCacheLow: 0.10, GPUCacheHigh: 0.30},
		PeakGPUThroughput:   100 * units.GBps,
		PinnedGPUThroughput: 10 * units.GBps,
		ZCSCMaxSpeedup:      10,
		SCZCMaxSpeedup:      2.5,
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	entries := map[string]framework.Characterization{
		testKey(1): handoffChar("board-1"),
		testKey(2): handoffChar("board-2"),
		testKey(3): handoffChar("board-3"),
	}
	var buf bytes.Buffer
	n, err := WriteExport(&buf, entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("exported %d entries, want 3", n)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("export is %d lines, want 3 (one per entry)", lines)
	}

	got := map[string]framework.Characterization{}
	in, quarantined, err := ReadExport(&buf, func(key string, char framework.Characterization) error {
		got[key] = char
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if in != 3 || len(got) != 3 || quarantined != 0 {
		t.Fatalf("imported %d entries (%d distinct, %d quarantined), want 3", in, len(got), quarantined)
	}
	for key, want := range entries {
		if got[key].Platform != want.Platform {
			t.Fatalf("entry %s round-tripped platform %q, want %q", key, got[key].Platform, want.Platform)
		}
		if got[key].PeakGPUThroughput != want.PeakGPUThroughput {
			t.Fatalf("entry %s lost peak throughput", key)
		}
	}
}

func TestWriteExportFilter(t *testing.T) {
	entries := map[string]framework.Characterization{
		testKey(1): handoffChar("keep"),
		testKey(2): handoffChar("drop"),
	}
	var buf bytes.Buffer
	n, err := WriteExport(&buf, entries, func(char framework.Characterization) bool { return char.Platform == "keep" })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("filtered export wrote %d entries, want 1", n)
	}
	if !strings.Contains(buf.String(), "keep") || strings.Contains(buf.String(), "drop") {
		t.Fatalf("filter leaked the wrong entry: %s", buf.String())
	}
}

// A corrupt line is quarantined — skipped and counted — never delivered,
// and never fatal to the good entries around it.
func TestReadExportQuarantinesCorruptLines(t *testing.T) {
	good := map[string]framework.Characterization{testKey(1): handoffChar("b")}
	var buf bytes.Buffer
	if _, err := WriteExport(&buf, good, nil); err != nil {
		t.Fatal(err)
	}
	goodLine := buf.String()

	cases := map[string]string{
		"not json":    "{nope\n",
		"empty key":   `{"key":"","entry":{}}` + "\n",
		"bad payload": `{"key":"abc","entry":{"format_version":999}}` + "\n",
	}
	for name, corrupt := range cases {
		// Corrupt line sandwiched between good ones: both good entries must
		// survive, the bad one must be quarantined.
		stream := goodLine + corrupt + goodLine
		delivered := 0
		n, quarantined, err := ReadExport(strings.NewReader(stream), func(key string, _ framework.Characterization) error {
			if key != testKey(1) {
				t.Fatalf("%s: delivered corrupt key %q", name, key)
			}
			delivered++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: quarantine turned fatal: %v", name, err)
		}
		if n != 2 || delivered != 2 || quarantined != 1 {
			t.Fatalf("%s: n=%d delivered=%d quarantined=%d, want 2, 2, 1", name, n, delivered, quarantined)
		}
	}
}

func TestReadExportSkipsBlankLines(t *testing.T) {
	entries := map[string]framework.Characterization{testKey(1): handoffChar("b")}
	var buf bytes.Buffer
	if _, err := WriteExport(&buf, entries, nil); err != nil {
		t.Fatal(err)
	}
	padded := "\n" + buf.String() + "\n\n"
	n, quarantined, err := ReadExport(strings.NewReader(padded), func(string, framework.Characterization) error { return nil })
	if err != nil || n != 1 || quarantined != 0 {
		t.Fatalf("padded stream: n=%d quarantined=%d err=%v, want 1, 0, nil", n, quarantined, err)
	}
}

// Pull must import only entries for platforms it owns, tolerate a dead
// peer, and count what it installed.
func TestPullImportsOwnedEntriesAndSurvivesDeadPeer(t *testing.T) {
	// The exporting peer owns nothing here; it just serves whatever the
	// owner filter the *puller* requested selects, like advisord will.
	st, err := NewState("shard-a", testShards("shard-a", "shard-b", "shard-dead"), 64)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]framework.Characterization{}
	for i := 0; i < 50; i++ {
		entries[testKey(i)] = handoffChar(fmt.Sprintf("board-%d", i))
	}
	ownedByA := 0
	for _, char := range entries {
		if st.Owner(char.Platform) == "shard-a" {
			ownedByA++
		}
	}
	if ownedByA == 0 || ownedByA == len(entries) {
		t.Fatalf("test ring degenerate: shard-a owns %d/%d", ownedByA, len(entries))
	}

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/export" {
			http.NotFound(w, r)
			return
		}
		owner := r.URL.Query().Get("owner")
		if _, err := WriteExport(w, entries, func(char framework.Characterization) bool { return st.Owner(char.Platform) == owner }); err != nil {
			t.Errorf("export: %v", err)
		}
	}))
	defer peer.Close()

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused

	shards := []Shard{
		{ID: "shard-a", URL: "http://unused.test"},
		{ID: "shard-b", URL: peer.URL},
		{ID: "shard-dead", URL: dead.URL},
	}
	if err := st.SetShards(shards); err != nil {
		t.Fatal(err)
	}

	got := map[string]framework.Characterization{}
	rep, err := Pull(context.Background(), st, peer.Client(), func(key string, char framework.Characterization) {
		got[key] = char
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peers != 2 {
		t.Fatalf("contacted %d peers, want 2", rep.Peers)
	}
	if len(rep.PeerErrors) != 1 || !strings.Contains(rep.PeerErrors[0], "shard-dead") {
		t.Fatalf("peer errors = %v, want one for shard-dead", rep.PeerErrors)
	}
	if rep.Pulled != ownedByA || len(got) != ownedByA {
		t.Fatalf("pulled %d entries (%d installed), want %d", rep.Pulled, len(got), ownedByA)
	}
	for key, char := range got {
		if st.Owner(char.Platform) != "shard-a" {
			t.Fatalf("pulled key %s (%s) owned by %s, not shard-a", key, char.Platform, st.Owner(char.Platform))
		}
	}
	if st.Stats().HandoffImported != uint64(ownedByA) {
		t.Fatalf("imported counter = %d, want %d", st.Stats().HandoffImported, ownedByA)
	}
}

func TestStateBasics(t *testing.T) {
	st, err := NewState("a", testShards("a", "b"), 32)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version() != 1 {
		t.Fatalf("initial version = %d, want 1", st.Version())
	}
	if _, err := NewState("ghost", testShards("a", "b"), 0); err == nil {
		t.Fatal("state for non-member self should fail")
	}
	if err := st.SetShards(testShards("b", "c")); err == nil {
		t.Fatal("ejecting self via SetShards should fail")
	}
	if err := st.SetShards(testShards("a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if st.Version() != 2 {
		t.Fatalf("version after SetShards = %d, want 2", st.Version())
	}

	topo := st.Topology()
	if topo.Self != "a" || len(topo.Shards) != 3 {
		t.Fatalf("topology = %+v", topo)
	}
	for _, sh := range topo.Shards {
		want := StateUnknown
		if sh.ID == "a" {
			want = StateHealthy
		}
		if sh.State != want {
			t.Fatalf("shard %s state = %q, want %q", sh.ID, sh.State, want)
		}
	}
	st.SetDraining(true)
	if !st.Draining() {
		t.Fatal("drain flag not set")
	}
	for _, sh := range st.Topology().Shards {
		if sh.ID == "a" && sh.State != StateDraining {
			t.Fatalf("draining self reported as %q", sh.State)
		}
	}

	// Reroute accounting follows ring ownership of the served device.
	owned, remote := "", ""
	for i := 0; owned == "" || remote == ""; i++ {
		key := testKey(i)
		if st.Owns(key) {
			owned = key
		} else {
			remote = key
		}
	}
	st.NoteServed(owned)
	st.NoteServed(remote)
	if got := st.Stats().ReroutesReceived; got != 1 {
		t.Fatalf("reroutes_received = %d, want 1", got)
	}
	if peers := st.Peers(); len(peers) != 2 {
		t.Fatalf("peers = %v, want 2 entries", peers)
	}
}
