package construct

// Regression coverage for the commit-path bugfixes that rode along with the
// pipelined Consume: batch validation before the first commit, the
// Touched/Removed disjointness invariant, and the SourceStats rendering of
// removals.

import (
	"strings"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// graphBytes renders the full KG state for byte comparison.
func graphBytes(t *testing.T, kg *KG) string {
	t.Helper()
	var b strings.Builder
	for _, tr := range kg.Graph.Triples() {
		b.WriteString(tr.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestConsumeBadDeltaLeavesKGUntouched: a batch containing an invalid delta
// must not commit any of its deltas — previously Consume committed deltas
// 0..j−1 before discovering that delta j's prepare failed, leaving the KG
// half-applied with no way to tell which deltas landed.
func TestConsumeBadDeltaLeavesKGUntouched(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default(), 1)
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "seed", Added: []*triple.Entity{sourceArtist("seed", "a", "Seed Artist")},
	}); err != nil {
		t.Fatal(err)
	}
	before := graphBytes(t, kg)
	links := kg.LinkCount()

	bad := ingest.Delta{Source: "s2", Added: []*triple.Entity{sourceArtist("s2", "y", "Beta"), nil}}
	batch := []ingest.Delta{
		{Source: "s1", Added: []*triple.Entity{sourceArtist("s1", "x", "Alpha")}},
		bad,
		{Source: "s3", Added: []*triple.Entity{sourceArtist("s3", "z", "Gamma")}},
	}
	consumes := map[string]func([]ingest.Delta) ([]SourceStats, error){
		"pipelined": p.Consume,
		"barrier":   p.ConsumeBarrier,
	}
	for name, consume := range consumes {
		if _, err := consume(batch); err == nil {
			t.Fatalf("%s: batch with bad delta should error", name)
		}
		if got := graphBytes(t, kg); got != before {
			t.Fatalf("%s: KG changed although a delta of the batch was invalid", name)
		}
		if kg.LinkCount() != links {
			t.Fatalf("%s: link index changed: %d vs %d", name, kg.LinkCount(), links)
		}
	}
	// The valid deltas still consume cleanly afterwards.
	if _, err := p.Consume(batch[:1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := kg.Lookup("s1:x"); !ok {
		t.Fatal("valid delta did not consume after the aborted batch")
	}
}

// TestDeleteThenReaddTouchedRemovedDisjoint: re-adding and deleting the same
// source entity within one batch must leave every KG id in exactly one of
// Touched or Removed (the sets the Graph Engine publishes), never both.
func TestDeleteThenReaddTouchedRemovedDisjoint(t *testing.T) {
	assertDisjoint := func(s SourceStats) {
		t.Helper()
		removed := make(map[triple.EntityID]bool, len(s.Removed))
		for _, id := range s.Removed {
			removed[id] = true
		}
		for _, id := range s.Touched {
			if removed[id] {
				t.Fatalf("entity %s in both Touched and Removed: %+v", id, s)
			}
		}
	}

	// One delta deleting, re-adding, and volatile-refreshing the same source
	// entity: the re-added payload fuses first, the deletion then strips the
	// source contribution again, and the volatile overwrite must not
	// resurrect the removed entity as a ghost — the sole-source entity ends
	// up removed, and must not also report as touched.
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default(), 1)
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Phoenix")},
	}); err != nil {
		t.Fatal(err)
	}
	kgID, _ := kg.Lookup("s:a")
	vol := triple.NewEntity("s:a")
	vol.Add(triple.New("", "popularity", triple.Float(0.7)).WithSource("s", 0.9))
	stats, err := p.ConsumeDelta(ingest.Delta{
		Source:   "s",
		Added:    []*triple.Entity{sourceArtist("s", "a", "Phoenix")},
		Deleted:  []triple.EntityID{"s:a"},
		Volatile: []*triple.Entity{vol},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertDisjoint(stats)
	if len(stats.Removed) != 1 || stats.Removed[0] != kgID {
		t.Fatalf("removed = %v, want [%s]", stats.Removed, kgID)
	}
	if stats.Volatile != 0 {
		t.Fatalf("volatile overwrite applied to a removed entity: %+v", stats)
	}
	if kg.Graph.Has(kgID) {
		t.Fatal("sole-source entity should be gone after delete-then-readd")
	}

	// Delete and re-add split across the deltas of one pipelined batch; every
	// delta's stats must keep the invariant.
	kg2 := NewKG()
	p2 := NewPipeline(kg2, ontology.Default(), 1)
	if _, err := p2.ConsumeDelta(ingest.Delta{
		Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Phoenix")},
	}); err != nil {
		t.Fatal(err)
	}
	batchStats, err := p2.Consume([]ingest.Delta{
		{Source: "s", Deleted: []triple.EntityID{"s:a"}},
		{Source: "s", Added: []*triple.Entity{sourceArtist("s", "a", "Phoenix")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range batchStats {
		assertDisjoint(s)
	}
	if _, ok := kg2.Lookup("s:a"); !ok {
		t.Fatal("re-added entity should be linked again")
	}
}

// TestSourceStatsStringReportsRemovals: the rendered stats must distinguish
// processed deletions (del) from entities actually removed from the KG (rm),
// which used to be omitted entirely.
func TestSourceStatsStringReportsRemovals(t *testing.T) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default(), 1)
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s1", Added: []*triple.Entity{sourceArtist("s1", "a", "Solo")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ConsumeDelta(ingest.Delta{
		Source: "s2", Added: []*triple.Entity{sourceArtist("s2", "b", "Solo")},
	}); err != nil {
		t.Fatal(err)
	}
	// s2's contribution goes away but the entity survives on s1's facts:
	// del=1, rm=0.
	stats, err := p.ConsumeDelta(ingest.Delta{Source: "s2", Deleted: []triple.EntityID{"s2:b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "del=1") || !strings.Contains(stats.String(), "rm=0") {
		t.Fatalf("stats rendering = %q, want del=1 rm=0", stats.String())
	}
	// Deleting the last source removes the entity: del=1, rm=1.
	stats, err = p.ConsumeDelta(ingest.Delta{Source: "s1", Deleted: []triple.EntityID{"s1:a"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "del=1") || !strings.Contains(stats.String(), "rm=1") {
		t.Fatalf("stats rendering = %q, want del=1 rm=1", stats.String())
	}
}

// TestCachedAliasResolverTracksCommits: with no resolver wired, OBR runs over
// the cached incremental AliasResolver; after an entity is renamed (updated)
// or removed, a later commit's dangling references must resolve exactly as a
// freshly built resolver would.
func TestCachedAliasResolverTracksCommits(t *testing.T) {
	ont := ontology.Default()
	kg := NewKG()
	p := NewPipeline(kg, ont, 1)

	label := triple.NewEntity("s:lbl")
	addf := func(e *triple.Entity, pred string, v triple.Value) {
		e.Add(triple.New("", pred, v).WithSource("s", 0.9))
	}
	addf(label, triple.PredType, triple.String("record_label"))
	addf(label, triple.PredSourceID, triple.String("lbl"))
	addf(label, triple.PredName, triple.String("XL Recordings"))
	addf(label, triple.PredAlias, triple.String("XL Recordings"))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{label}}); err != nil {
		t.Fatal(err)
	}
	labelKG, _ := kg.Lookup("s:lbl")

	// An artist referencing the label only by mention (dangling source ref):
	// the cached resolver must find the alias indexed by the first commit.
	artist := sourceArtist("s", "artist1", "Sampha")
	artist.Add(triple.New("", "signed_to", triple.Ref("s:xl-recordings")).WithSource("s", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{artist}}); err != nil {
		t.Fatal(err)
	}
	artistKG, _ := kg.Lookup("s:artist1")
	if got := kg.Graph.Get(artistKG).First("signed_to").Ref(); got != labelKG {
		t.Fatalf("signed_to = %s, want %s (resolved via cached alias index)", got, labelKG)
	}

	// Rename the label; the cache must re-index it from the commit's touched
	// set, so the old alias stops resolving and a stub is minted instead.
	renamed := triple.NewEntity("s:lbl")
	addf(renamed, triple.PredType, triple.String("record_label"))
	addf(renamed, triple.PredSourceID, triple.String("lbl"))
	addf(renamed, triple.PredName, triple.String("Young Turks"))
	addf(renamed, triple.PredAlias, triple.String("Young Turks"))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Updated: []*triple.Entity{renamed}}); err != nil {
		t.Fatal(err)
	}
	artist2 := sourceArtist("s", "artist2", "Romy")
	artist2.Add(triple.New("", "signed_to", triple.Ref("s2:xl-recordings")).WithSource("s", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{artist2}}); err != nil {
		t.Fatal(err)
	}
	artist2KG, _ := kg.Lookup("s:artist2")
	ref := kg.Graph.Get(artist2KG).First("signed_to").Ref()
	if ref == labelKG {
		t.Fatal("stale alias cache: renamed label still resolves under its old name")
	}
	if stub := kg.Graph.Get(ref); stub == nil || stub.Name() != "xl recordings" {
		t.Fatalf("expected a minted stub for the dangling mention, got %+v", stub)
	}

	// And the new alias resolves through the refreshed cache.
	artist3 := sourceArtist("s", "artist3", "Oliver Sim")
	artist3.Add(triple.New("", "signed_to", triple.Ref("s3:young-turks")).WithSource("s", 0.9))
	if _, err := p.ConsumeDelta(ingest.Delta{Source: "s", Added: []*triple.Entity{artist3}}); err != nil {
		t.Fatal(err)
	}
	artist3KG, _ := kg.Lookup("s:artist3")
	if got := kg.Graph.Get(artist3KG).First("signed_to").Ref(); got != labelKG {
		t.Fatalf("signed_to = %s, want %s (resolved via refreshed alias cache)", got, labelKG)
	}
}
