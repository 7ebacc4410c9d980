package construct_test

// Equivalence and race coverage for intra-delta parallelism: every parallel
// path (pair scoring, component clustering, type-group resolution, the
// Consume prepare/commit split) must produce output byte-identical to the
// sequential reference, for any worker count.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// noisyEntities builds a payload with duplicates and typos via the workload
// generator; ground truth is irrelevant here, only determinism.
func noisyEntities(n int, seed int64) []*triple.Entity {
	return workload.SourceSpec{
		Name: "s", Offset: 0, Count: n,
		DupRate: 0.15, TypoRate: 0.25, RichFacts: 1, Seed: seed,
	}.Entities()
}

func TestShardScoredPartition(t *testing.T) {
	ents := noisyEntities(200, 7)
	byID := make(map[triple.EntityID]*triple.Entity, len(ents))
	nodes := make([]triple.EntityID, 0, len(ents))
	for _, e := range ents {
		if _, dup := byID[e.ID]; dup {
			continue
		}
		byID[e.ID] = e
		nodes = append(nodes, e.ID)
	}
	blocking := construct.GeneratePairs(ents, construct.DefaultBlocker(), construct.GenerateParams{})
	scored := construct.ScorePairs(blocking.Pairs, byID, construct.RuleMatcher{})
	shards := construct.ShardScored(nodes, scored)

	seen := make(map[triple.EntityID]int)
	pairCount := 0
	for si, sh := range shards {
		inShard := make(map[triple.EntityID]bool, len(sh.Nodes))
		for _, n := range sh.Nodes {
			if prev, dup := seen[n]; dup {
				t.Fatalf("node %s in shards %d and %d", n, prev, si)
			}
			seen[n] = si
			inShard[n] = true
		}
		for _, sp := range sh.Pairs {
			pairCount++
			if !inShard[sp.A] || !inShard[sp.B] {
				t.Fatalf("pair %v crosses shard %d", sp.Pair, si)
			}
		}
	}
	if len(seen) != len(nodes) {
		t.Fatalf("shards cover %d nodes, want %d", len(seen), len(nodes))
	}
	if pairCount != len(scored) {
		t.Fatalf("shards hold %d pairs, want %d", pairCount, len(scored))
	}
}

func TestScorePairsParallelMatchesSequential(t *testing.T) {
	ents := noisyEntities(300, 11)
	byID := make(map[triple.EntityID]*triple.Entity, len(ents))
	for _, e := range ents {
		byID[e.ID] = e
	}
	blocking := construct.GeneratePairs(ents, construct.DefaultBlocker(), construct.GenerateParams{})
	// Drop one endpoint so the unknown-entity skip path is exercised too.
	if len(blocking.Pairs) > 0 {
		delete(byID, blocking.Pairs[len(blocking.Pairs)/2].A)
	}
	seq := construct.ScorePairs(blocking.Pairs, byID, construct.RuleMatcher{})
	for _, workers := range []int{2, 4, 13} {
		par := construct.ScorePairsParallel(blocking.Pairs, byID, construct.RuleMatcher{}, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel scoring diverged (%d vs %d pairs)", workers, len(par), len(seq))
		}
	}
}

func TestResolveParallelMatchesSequential(t *testing.T) {
	ents := noisyEntities(250, 13)
	byID := make(map[triple.EntityID]*triple.Entity, len(ents))
	nodes := make([]triple.EntityID, 0, len(ents))
	for _, e := range ents {
		if _, dup := byID[e.ID]; dup {
			continue
		}
		byID[e.ID] = e
		nodes = append(nodes, e.ID)
	}
	blocking := construct.GeneratePairs(ents, construct.DefaultBlocker(), construct.GenerateParams{})
	scored := construct.ScorePairs(blocking.Pairs, byID, construct.RuleMatcher{})
	seq := construct.Resolve(nodes, scored, construct.ClusterParams{})
	for _, workers := range []int{2, 4, 16} {
		par := construct.ResolveParallel(nodes, scored, construct.ClusterParams{}, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel clustering diverged (%d vs %d clusters)", workers, len(par), len(seq))
		}
	}
}

func TestLinkEntitiesWorkerCountInvariant(t *testing.T) {
	kgView := noisyEntities(60, 17)
	for i, e := range kgView {
		// Re-home the view into the KG namespace as Resolve requires.
		clone := e.Clone()
		clone.Rewrite(triple.EntityID(fmt.Sprintf("kg:%04d", i)), nil)
		kgView[i] = clone
	}
	run := func(workers int) construct.LinkOutcome {
		src := noisyEntities(120, 19)
		minted := 0
		mint := func() triple.EntityID {
			minted++
			return triple.EntityID(fmt.Sprintf("kg:new%04d", minted))
		}
		return construct.LinkEntities(src, kgView, "human", mint, construct.LinkParams{Workers: workers})
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if !reflect.DeepEqual(seq.Assignment, par.Assignment) {
			t.Fatalf("workers=%d: assignments diverged", workers)
		}
		if !reflect.DeepEqual(seq.SameAs, par.SameAs) {
			t.Fatalf("workers=%d: same_as diverged", workers)
		}
		if !reflect.DeepEqual(seq.Clusters, par.Clusters) {
			t.Fatalf("workers=%d: clusters diverged", workers)
		}
		if seq.NewEntities != par.NewEntities {
			t.Fatalf("workers=%d: minted %d vs %d", workers, par.NewEntities, seq.NewEntities)
		}
	}
}

// kgFingerprint renders the complete KG state (every triple of every entity,
// canonically sorted) so two graphs can be compared byte for byte.
func kgFingerprint(kg *construct.KG) string {
	ts := kg.Graph.Triples()
	sort.Slice(ts, func(i, j int) bool { return triple.CompareTriples(ts[i], ts[j]) < 0 })
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%+v\n", t)
	}
	return b.String()
}

// overlappingSpecs model several sources observing overlapping slices of one
// universe — the hard case for linking determinism.
func overlappingSpecs() []workload.SourceSpec {
	specs := make([]workload.SourceSpec, 5)
	for s := range specs {
		specs[s] = workload.SourceSpec{
			Name:    fmt.Sprintf("src%02d", s),
			Offset:  s * 40, // consecutive sources share 60 universe entities
			Count:   100,
			DupRate: 0.1, TypoRate: 0.15, RichFacts: 2,
			Seed: int64(s + 1),
		}
	}
	return specs
}

// TestPipelineWorkerCountByteIdentical: consuming the same delta stream
// sequentially must write a byte-identical KG whether intra-delta stages run
// on one worker or many.
func TestPipelineWorkerCountByteIdentical(t *testing.T) {
	run := func(workers int, indexed bool) *construct.KG {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ontology.Default(), 1)
		p.Workers = workers
		if indexed {
			p.EnableBlockIndex()
		}
		for _, spec := range overlappingSpecs() {
			if _, err := p.ConsumeDelta(spec.Delta()); err != nil {
				t.Fatal(err)
			}
		}
		// A second round of updates and deletes through the same pipeline.
		upd := overlappingSpecs()[0]
		upd.Seed += 100
		ents := upd.Entities()
		if _, err := p.ConsumeDelta(ingest.Delta{Source: upd.Name, Updated: ents[:20]}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ConsumeDelta(ingest.Delta{
			Source:  upd.Name,
			Deleted: []triple.EntityID{triple.EntityID(upd.Name + ":e0"), triple.EntityID(upd.Name + ":e1")},
		}); err != nil {
			t.Fatal(err)
		}
		return kg
	}
	// Every combination of worker count and linking mode (full KG-view scan
	// vs incremental block index) must write the same bytes.
	want := kgFingerprint(run(1, false))
	for _, workers := range []int{1, 2, 8} {
		for _, indexed := range []bool{false, true} {
			if workers == 1 && !indexed {
				continue // the reference run
			}
			if got := kgFingerprint(run(workers, indexed)); got != want {
				t.Fatalf("workers=%d indexed=%v: KG diverged from sequential full-scan run", workers, indexed)
			}
		}
	}
}

// independentDeltas builds sources with disjoint entity types and name
// spaces, so no delta can link against another's output; for such inputs
// Consume and ConsumeSequential must agree exactly.
func independentDeltas(n int) []ingest.Delta {
	deltas := make([]ingest.Delta, n)
	for s := 0; s < n; s++ {
		src := fmt.Sprintf("src%02d", s)
		typ := fmt.Sprintf("kind%02d", s)
		var added []*triple.Entity
		for i := 0; i < 40; i++ {
			local := fmt.Sprintf("e%d", i)
			e := triple.NewEntity(triple.EntityID(src + ":" + local))
			add := func(p string, v triple.Value) { e.Add(triple.New("", p, v).WithSource(src, 0.9)) }
			add(triple.PredType, triple.String(typ))
			add(triple.PredSourceID, triple.String(local))
			add(triple.PredName, triple.String(fmt.Sprintf("%s item %d", src, i/2))) // in-source duplicates
			add("related_to", triple.Ref(triple.EntityID(fmt.Sprintf("%s:e%d", src, (i+7)%40))))
			if i%5 == 0 { // dangling reference → deterministic stub minting
				add("based_on", triple.Ref(triple.EntityID(fmt.Sprintf("%s:missing%d", src, i%3))))
			}
			added = append(added, e)
		}
		deltas[s] = ingest.Delta{Source: src, Added: added}
	}
	return deltas
}

// TestConsumeParallelEqualsSequential: over independent shuffled deltas, the
// parallel Consume and the sequential ablation path must produce identical
// KG state — entities, facts, links, and stats.
func TestConsumeParallelEqualsSequential(t *testing.T) {
	shuffle := func(deltas []ingest.Delta) []ingest.Delta {
		r := rand.New(rand.NewSource(42))
		r.Shuffle(len(deltas), func(i, j int) { deltas[i], deltas[j] = deltas[j], deltas[i] })
		return deltas
	}

	kgSeq := construct.NewKG()
	pSeq := construct.NewPipeline(kgSeq, ontology.Default(), 1)
	pSeq.Workers = 1
	statsSeq, err := pSeq.ConsumeSequential(shuffle(independentDeltas(8)))
	if err != nil {
		t.Fatal(err)
	}

	kgPar := construct.NewKG()
	pPar := construct.NewPipeline(kgPar, ontology.Default(), 1)
	pPar.Workers = 8
	statsPar, err := pPar.Consume(shuffle(independentDeltas(8)))
	if err != nil {
		t.Fatal(err)
	}

	if got, want := kgFingerprint(kgPar), kgFingerprint(kgSeq); got != want {
		t.Fatalf("parallel KG state diverged from sequential:\nparallel %d bytes, sequential %d bytes", len(got), len(want))
	}
	if kgPar.LinkCount() != kgSeq.LinkCount() {
		t.Fatalf("link counts diverged: %d vs %d", kgPar.LinkCount(), kgSeq.LinkCount())
	}
	for _, d := range independentDeltas(8) {
		for _, e := range d.Added {
			a, okA := kgSeq.Lookup(e.ID)
			b, okB := kgPar.Lookup(e.ID)
			if okA != okB || a != b {
				t.Fatalf("link for %s diverged: %s vs %s", e.ID, a, b)
			}
		}
	}
	if !reflect.DeepEqual(statsSeq, statsPar) {
		t.Fatalf("stats diverged:\nseq: %+v\npar: %+v", statsSeq, statsPar)
	}
}

// TestConcurrentConsumeDeltaRace drives direct concurrent ConsumeDelta calls
// (the cross-source path core.Platform uses) under the race detector, in
// both linking modes: with the block index enabled, concurrent prepares
// probe the index while commits refresh it.
func TestConcurrentConsumeDeltaRace(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			testConcurrentConsumeDelta(t, indexed)
		})
	}
}

func testConcurrentConsumeDelta(t *testing.T, indexed bool) {
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ontology.Default(), 1)
	if indexed {
		p.EnableBlockIndex()
	}
	deltas := independentDeltas(6)
	var wg sync.WaitGroup
	errs := make([]error, len(deltas))
	for i := range deltas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.ConsumeDelta(deltas[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if kg.Graph.Len() == 0 {
		t.Fatal("no entities constructed")
	}
}

// richDeltas extends independentDeltas with per-source update and delete
// deltas (same batch), so the three consume paths are exercised across every
// payload kind, not just adds.
func richDeltas(n int) []ingest.Delta {
	deltas := independentDeltas(n)
	for s := 0; s < n; s++ {
		src := deltas[s].Source
		upd := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", src, s%40)))
		upd.Add(triple.New("", triple.PredType, triple.String(fmt.Sprintf("kind%02d", s))).WithSource(src, 0.9))
		upd.Add(triple.New("", triple.PredName, triple.String(fmt.Sprintf("%s item %d renamed", src, s))).WithSource(src, 0.9))
		deltas = append(deltas, ingest.Delta{
			Source:  src,
			Updated: []*triple.Entity{upd},
			Deleted: []triple.EntityID{triple.EntityID(fmt.Sprintf("%s:e%d", src, (s+1)%40))},
		})
	}
	return deltas
}

// TestConsumePipelinedBarrierSequentialByteIdentical: the pipelined Consume,
// the barrier ConsumeBarrier, and ConsumeSequential must produce
// byte-identical KGs and identical SourceStats over independent deltas, for
// every worker count and in both linking modes. This is the property the
// commit-pipeline invariants promise: overlapping prepare and fuse across
// deltas never changes a single byte of output.
func TestConsumePipelinedBarrierSequentialByteIdentical(t *testing.T) {
	type consumeFn func(p *construct.Pipeline, deltas []ingest.Delta) ([]construct.SourceStats, error)
	modes := []struct {
		name    string
		consume consumeFn
	}{
		{"pipelined", func(p *construct.Pipeline, d []ingest.Delta) ([]construct.SourceStats, error) { return p.Consume(d) }},
		{"barrier", func(p *construct.Pipeline, d []ingest.Delta) ([]construct.SourceStats, error) {
			return p.ConsumeBarrier(d)
		}},
		{"sequential", func(p *construct.Pipeline, d []ingest.Delta) ([]construct.SourceStats, error) {
			return p.ConsumeSequential(d)
		}},
	}
	run := func(consume consumeFn, workers int, indexed bool) (string, []construct.SourceStats) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ontology.Default(), 1)
		p.Workers = workers
		if indexed {
			p.EnableBlockIndex()
		}
		// Consume the adds first, then the update/delete tail in a second
		// batch: within one batch the deltas must be independent for the
		// sequential path to agree (the batch contract).
		deltas := richDeltas(6)
		stats, err := consume(p, deltas[:6])
		if err != nil {
			t.Fatal(err)
		}
		tail, err := consume(p, deltas[6:])
		if err != nil {
			t.Fatal(err)
		}
		return kgFingerprint(kg), append(stats, tail...)
	}
	wantKG, wantStats := run(modes[2].consume, 1, false)
	for _, mode := range modes {
		for _, workers := range []int{1, 2, 8} {
			for _, indexed := range []bool{false, true} {
				if mode.name == "sequential" && workers == 1 && !indexed {
					continue // the reference run
				}
				gotKG, gotStats := run(mode.consume, workers, indexed)
				if gotKG != wantKG {
					t.Fatalf("%s workers=%d indexed=%v: KG diverged from sequential reference", mode.name, workers, indexed)
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Fatalf("%s workers=%d indexed=%v: stats diverged:\ngot:  %+v\nwant: %+v", mode.name, workers, indexed, gotStats, wantStats)
				}
			}
		}
	}
}

// TestPipelinedConsumeConcurrentReaders drives a pipelined Consume while
// other goroutines concurrently drain conflicts and read pipeline, index,
// and graph statistics — the monitoring traffic a live platform generates —
// under the race detector.
func TestPipelinedConsumeConcurrentReaders(t *testing.T) {
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ontology.Default(), 1)
	p.Workers = 4 // force the pipelined schedule even on single-CPU hosts
	p.EnableBlockIndex()

	done := make(chan struct{})
	var wg sync.WaitGroup
	var drained int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				atomic.AddInt64(&drained, int64(len(p.DrainConflicts())))
				_ = p.FusionStats()
				_ = p.BlockIndexStats()
				_ = kg.LinkCount()
				_ = kg.Graph.Stats()
			}
		}()
	}
	var consumed int
	for round := 0; round < 3; round++ {
		stats, err := p.Consume(independentDeltas(6))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			consumed += s.LinkedAdds
		}
	}
	close(done)
	wg.Wait()
	if consumed == 0 {
		t.Fatal("nothing consumed")
	}
	// Conflicts may land in the drain goroutines or remain in the pipeline;
	// none may be lost or double-counted.
	total := atomic.AddInt64(&drained, int64(len(p.DrainConflicts())))
	fs := p.FusionStats()
	if fs.Commits != 18 {
		t.Fatalf("commits = %d, want 18", fs.Commits)
	}
	if fs.Payloads < fs.Targets {
		t.Fatalf("fusion counters implausible: %+v (drained %d conflicts)", fs, total)
	}
}
