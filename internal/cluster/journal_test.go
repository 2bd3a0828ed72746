package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/mstore"
	"qurator/internal/ontology"
	"qurator/internal/provenance"
	"qurator/internal/stream"
)

func TestJournalAbsorbIsSetSemantic(t *testing.T) {
	j := NewJournal(nil)
	e := JournalEntry{Key: "k1", Result: stream.WindowResult{Seq: 0, Size: 4, View: "v"}}
	if err := j.Absorb(e); err != nil {
		t.Fatal(err)
	}
	if err := j.Absorb(e); err != nil {
		t.Fatalf("duplicate absorb must be a no-op, got %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d after duplicate absorb; want 1", j.Len())
	}
	if _, ok := j.Lookup("k1"); !ok {
		t.Fatalf("absorbed entry not found")
	}
	if _, ok := j.Lookup("missing"); ok {
		t.Fatalf("phantom journal entry")
	}
}

func TestJournalSurvivesRestartThroughProvenance(t *testing.T) {
	dir := t.TempDir()
	log := provenance.NewLog()
	if err := log.Persist(filepath.Join(dir, "prov"), mstore.Options{}); err != nil {
		t.Fatal(err)
	}
	j := NewJournal(log)
	res := stream.WindowResult{Seq: 2, Size: 4, View: "paper",
		Decisions: []stream.Decision{{Item: hit(0).Value(), Window: 2, Outputs: []string{"accept:out"}}}}
	if err := j.Commit("key-abc", res); err != nil {
		t.Fatal(err)
	}
	if err := log.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// A new process over the same directory sees the emission.
	log2 := provenance.NewLog()
	if err := log2.Persist(filepath.Join(dir, "prov"), mstore.Options{}); err != nil {
		t.Fatal(err)
	}
	defer log2.CloseStore()
	j2 := NewJournal(log2)
	got, ok := j2.Lookup("key-abc")
	if !ok {
		t.Fatalf("journal entry lost across restart")
	}
	if got.View != "paper" || len(got.Decisions) != 1 || got.Decisions[0].Item != hit(0).Value() {
		t.Fatalf("recovered entry mangled: %+v", got)
	}
}

// TestCommitReplicatesAndPeerReplays is the failover story in miniature:
// a window committed on one node is replicated fleet-wide before its
// decisions escape, so when the SAME stream later arrives at a peer
// (because the committer died), the peer replays the journaled decisions
// instead of re-enacting — at-most-once enactment across the fleet.
func TestCommitReplicatesAndPeerReplays(t *testing.T) {
	n1 := startMember(t, "n1", nil, streamInner(nil))
	n2 := startMember(t, "n2", []string{n1.srv.URL}, streamInner(nil))
	waitFor(t, 3*time.Second, "fleet of 2", func() bool {
		return n1.node.Ring().Len() == 2 && n2.node.Ring().Len() == 2
	})

	lines := hitLines(8)
	c := &StreamClient{
		Nodes:  []string{n1.srv.URL},
		View:   "paper",
		Window: 4,
	}
	res1, err := c.Enact(context.Background(), lines)
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	assertExactlyOnce(t, res1.Decisions, 8)
	if res1.Replayed != 0 {
		t.Fatalf("first run replayed %d windows; nothing was journaled yet", res1.Replayed)
	}

	// Both nodes hold both windows now — the enacting owner committed
	// locally and replicated to its peer before emitting.
	waitFor(t, 2*time.Second, "journal replication", func() bool {
		return n1.node.Journal().Len() == 2 && n2.node.Journal().Len() == 2
	})

	// The same stream again, entering through the OTHER node: every
	// window must answer from the journal, with identical decisions.
	c2 := &StreamClient{
		Nodes:  []string{n2.srv.URL},
		View:   "paper",
		Window: 4,
	}
	res2, err := c2.Enact(context.Background(), lines)
	if err != nil {
		t.Fatalf("second stream: %v", err)
	}
	assertExactlyOnce(t, res2.Decisions, 8)
	if res2.Replayed != res2.Windows || res2.Windows != 2 {
		t.Fatalf("second run replayed %d of %d windows; want all 2", res2.Replayed, res2.Windows)
	}
	for i := range res1.Decisions {
		if res1.Decisions[i].Item != res2.Decisions[i].Item ||
			len(res1.Decisions[i].Outputs) != len(res2.Decisions[i].Outputs) {
			t.Fatalf("replayed decision %d differs:\n  first:  %+v\n  second: %+v",
				i, res1.Decisions[i], res2.Decisions[i])
		}
	}
	// Replaying enacted nothing, so no new journal entries appeared.
	if n1.node.Journal().Len() != 2 || n2.node.Journal().Len() != 2 {
		t.Fatalf("replay grew the journal: n1=%d n2=%d; want 2 each",
			n1.node.Journal().Len(), n2.node.Journal().Len())
	}
}

// TestNonFiniteStatsStreamAndJournal: inline "NaN" and "Inf" evidence
// parses as a float, so a window over it has no finite statistics for
// that column. Such a column must be left out of the window's Stats, not
// reported: JSON cannot carry NaN/±Inf, so it used to fail the journal
// commit (and, without a journal, the NDJSON summary line). Finite
// columns of the same window are still reported.
func TestNonFiniteStatsStreamAndJournal(t *testing.T) {
	compiled, err := paperCompiler(nil)("paper")
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(provenance.NewLog())
	e, err := stream.New(compiled, stream.Config{Window: 4, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	var input strings.Builder
	for i := 0; i < 4; i++ {
		inf := "1"
		if i == 2 {
			inf = `"-Inf"`
		}
		fmt.Fprintf(&input, `{"item":%q,"evidence":{"q:inlineX":"NaN","q:inlineY":%s,"q:inlineZ":%d}}`+"\n",
			hit(i).Value(), inf, i)
	}
	in := make(chan stream.Item)
	out := make(chan stream.WindowResult)
	readErr := make(chan error, 1)
	runErr := make(chan error, 1)
	go func() { readErr <- stream.ReadItems(strings.NewReader(input.String()), in) }()
	go func() { runErr <- e.Run(context.Background(), in, out) }()
	var buf bytes.Buffer
	if err := stream.WriteResults(&buf, out, nil); err != nil {
		t.Fatalf("WriteResults: %v", err)
	}
	if err := <-readErr; err != nil {
		t.Fatalf("ReadItems: %v", err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if j.Len() != 1 {
		t.Fatalf("journal holds %d emissions, want 1", j.Len())
	}

	var decisions int
	var summary struct {
		Stats map[string]stream.WindowStats `json:"stats"`
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.Contains(line, `"decided"`) {
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				t.Fatal(err)
			}
		} else {
			decisions++
		}
	}
	if decisions != 4 {
		t.Fatalf("got %d decisions, want 4:\n%s", decisions, buf.String())
	}
	for _, key := range []string{"q:inlineX", "q:inlineY"} {
		if _, ok := summary.Stats[ontology.ExpandQName(key).Value()]; ok {
			t.Errorf("non-finite column %s reported in stats: %v", key, summary.Stats)
		}
	}
	z, ok := summary.Stats[ontology.ExpandQName("q:inlineZ").Value()]
	if want := evidence.ComputeStats([]float64{0, 1, 2, 3}); !ok || z.N != 4 || z.Mean != want.Mean || z.StdDev != want.StdDev {
		t.Errorf("finite column stats = %+v (present %v), want %+v", z, ok, want)
	}
}
