package core

// Platform-level coverage for partitioned construction: the partitioned
// platform must leave every serving surface — stable KG, graph replica,
// entity store, text search — byte-identical to the single-pipeline platform
// over the same stream, through both the synchronous consume path and the
// standing feed with its exchange-deferred publisher; and the serving stores
// must stay race-free under concurrent readers while a partitioned feed
// ingests (run with -race).

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/triple"
	"saga/internal/workload"
)

// partitionedStream builds a mixed stream over sources sharing entity types
// (cross-source fusion) plus the shared city type: adds, shifted-window
// updates, deletes, and rounds of volatile popularity churn — the traffic the
// exchange protocol defers and replays.
func partitionedStream(rounds, sources, count int) [][]ingest.Delta {
	batches := make([][]ingest.Delta, rounds)
	for r := range batches {
		deltas := make([]ingest.Delta, 0, sources)
		for s := 0; s < sources; s++ {
			src := fmt.Sprintf("src%02d", s)
			offset := 0
			if r >= 1 {
				offset = 4
			}
			spec := workload.SourceSpec{
				Name: src, Type: fmt.Sprintf("kind%02d", s%2),
				Offset: offset, Count: count,
				DupRate: 0.1, TypoRate: 0.1, RichFacts: 2,
				Seed: int64(r*100 + s + 1),
			}
			switch {
			case r == 0:
				deltas = append(deltas, spec.Delta())
			case r == 1:
				deltas = append(deltas, ingest.Delta{Source: src, Updated: spec.Entities()})
			default:
				d := ingest.Delta{Source: src}
				if r == 2 {
					d.Deleted = []triple.EntityID{
						triple.EntityID(fmt.Sprintf("%s:e%d", src, s+4)),
					}
				}
				for u := 0; u < count+4; u++ {
					vol := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", src, u)))
					vol.Add(triple.New("", "popularity",
						triple.Float(float64(r)+float64(u)/1000)).WithSource(src, 0.9))
					d.Volatile = append(d.Volatile, vol)
				}
				if r%3 == 0 {
					d.Updated = spec.Entities()
				}
				deltas = append(deltas, d)
			}
		}
		batches[r] = deltas
	}
	return batches
}

// servingState flattens every serving surface for byte comparison. It omits
// the log LSN on purpose: partitioned publishing conflates an exchange
// window's churn into fewer log operations, so op counts legitimately differ
// while every store's contents must not.
type servingState struct {
	KG       []triple.Triple
	Replica  []triple.Triple
	Entities []triple.EntityID
	Search   []string
	Links    int
}

func servingStateOf(t *testing.T, p *Platform) servingState {
	t.Helper()
	st := servingState{
		KG:      p.KG.Graph.Triples(),
		Replica: p.GraphReplica.Triples(),
		Links:   p.KG.LinkCount(),
	}
	if err := p.EntityStore.Range(func(e *triple.Entity) bool {
		st.Entities = append(st.Entities, e.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(st.Entities, func(i, j int) bool { return st.Entities[i] < st.Entities[j] })
	for _, q := range []string{"okafor", "popularity", "guild"} {
		for _, h := range p.TextIndex.Search(q, 10) {
			st.Search = append(st.Search, h.ID)
		}
	}
	return st
}

// TestPartitionedPlatformSyncConsumeIdentity: the synchronous ConsumeDeltas
// path exchanges immediately after each batch, so even the operation log must
// match the single pipeline's op for op.
func TestPartitionedPlatformSyncConsumeIdentity(t *testing.T) {
	batches := partitionedStream(6, 3, 8)
	run := func(partitions int) (servingState, uint64) {
		p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2, Partitions: partitions}})
		for _, b := range batches {
			if _, err := p.ConsumeDeltas(b); err != nil {
				t.Fatal(err)
			}
		}
		return servingStateOf(t, p), p.Engine.Log.LastLSN()
	}
	want, wantLSN := run(1)
	for _, partitions := range []int{2, 4} {
		got, gotLSN := run(partitions)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partitions=%d: serving state diverged (kg %d vs %d triples, replica %d vs %d, entities %d vs %d, search %v vs %v)",
				partitions, len(got.KG), len(want.KG), len(got.Replica), len(want.Replica),
				len(got.Entities), len(want.Entities), got.Search, want.Search)
		}
		if gotLSN != wantLSN {
			t.Fatalf("partitions=%d: log lsn %d vs %d", partitions, gotLSN, wantLSN)
		}
	}
}

// TestPartitionedPlatformFeedIdentity: with several partitions the feed's
// publisher holds volatile-pending entities back across exchange windows;
// after the feed closes (final exchange), every store must hold exactly the
// single partition's bytes. One partition never defers.
func TestPartitionedPlatformFeedIdentity(t *testing.T) {
	batches := partitionedStream(8, 3, 8)
	run := func(partitions int) servingState {
		p := newTestPlatform(t, Options{
			Construction: ConstructionOptions{Workers: 2, Partitions: partitions, ExchangeInterval: 3},
		})
		f, err := p.Feed(FeedOptions{Queue: 2, PublishQueue: 1})
		if err != nil {
			t.Fatal(err)
		}
		results := make([]<-chan construct.BatchResult, 0, len(batches))
		for _, b := range batches {
			results = append(results, f.Submit(b))
		}
		for i, ch := range results {
			if res := <-ch; res.Err != nil {
				t.Fatalf("batch %d: %v", i, res.Err)
			}
		}
		if partitions == 1 {
			// One partition applies volatile writes in place: the last
			// batch's churn is in the replica as soon as its result returns,
			// before any exchange or Close.
			last := batches[len(batches)-1][0]
			v := last.Volatile[len(last.Volatile)-1]
			kgID, ok := p.KG.Lookup(v.ID)
			if !ok {
				t.Fatalf("volatile target %s not linked", v.ID)
			}
			want := v.Get("popularity")[0]
			e := p.GraphReplica.Get(kgID)
			if e == nil || !hasValue(e.Get("popularity"), want) {
				t.Fatalf("replica lacks volatile write %v on %s after its BatchResult", want, kgID)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Partitions != partitions {
			t.Fatalf("stats partitions = %d", st.Partitions)
		}
		if partitions > 1 && st.Volatile.Enqueued == 0 {
			t.Fatal("stream exercised no deferred volatile traffic")
		}
		if partitions == 1 && st.Volatile.Enqueued != 0 {
			t.Fatalf("one partition deferred volatile ops: %+v", st.Volatile)
		}
		if st.Volatile.Pending != 0 {
			t.Fatalf("pending volatile after close: %+v", st.Volatile)
		}
		return servingStateOf(t, p)
	}
	want := run(1)
	for _, partitions := range []int{2, 4} {
		if got := run(partitions); !reflect.DeepEqual(got, want) {
			t.Fatalf("partitions=%d: serving state diverged after feed drain (kg %d vs %d triples, entities %d vs %d)",
				partitions, len(got.KG), len(want.KG), len(got.Entities), len(want.Entities))
		}
	}
}

// TestPartitionedFeedConcurrentServingReaders hammers the serving surfaces —
// platform stats, COW snapshots, text search, entity store scans, replica
// ranges, KGQ queries — while a partitioned feed ingests volatile-heavy
// batches. Run with -race; the assertions are liveness plus a fully
// exchanged, fully published final state.
func TestPartitionedFeedConcurrentServingReaders(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2, Partitions: 3, ExchangeInterval: 2}})
	batches := partitionedStream(8, 3, 8)
	f, err := p.Feed(FeedOptions{Queue: 2, PublishQueue: 1})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					_ = p.Stats()
					snap := p.KG.Graph.Snapshot()
					_ = snap.Len()
				case 1:
					_ = p.TextIndex.Search("okafor", 5)
					_ = p.EntityStore.Range(func(e *triple.Entity) bool { return true })
				case 2:
					p.GraphReplica.RangeShared(func(e *triple.Entity) bool { return true })
					_, _ = p.Query(`entity(type="kind00") | attr("popularity")`)
				}
			}
		}(r)
	}

	results := make([]<-chan construct.BatchResult, 0, len(batches))
	for _, b := range batches {
		results = append(results, f.Submit(b))
	}
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
	}
	close(stop)
	readers.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Volatile.Pending != 0 {
		t.Fatalf("pending volatile after close: %+v", st.Volatile)
	}
	if p.GraphReplica.Len() == 0 {
		t.Fatal("replica empty after partitioned feed")
	}
}

// TestPartitionedCurationAndConflicts: curation hot fixes must keep the
// partitioned pipeline's per-partition KG caches transactional with direct
// graph writes, and conflict draining must route to the coordinator.
func TestPartitionedCurationAndConflicts(t *testing.T) {
	p := newTestPlatform(t, Options{Construction: ConstructionOptions{Workers: 2, Partitions: 2}})
	if _, err := p.ConsumeDelta(workload.SourceSpec{Name: "s", Count: 4, Seed: 5}.Delta()); err != nil {
		t.Fatal(err)
	}
	_ = p.DrainConflicts()
	p.RefreshServing()
	kgID, ok := p.KG.Lookup("s:e0")
	if !ok {
		t.Fatal("link missing")
	}
	ent := p.Live.Get(kgID)
	var nameFact triple.Triple
	for _, tr := range ent.Triples {
		if tr.Predicate == triple.PredName {
			nameFact = tr
		}
	}
	if err := p.Curation.Decide(p.Live, live.Decision{
		Kind: live.DecisionEdit, Entity: kgID, Fact: nameFact, NewValue: triple.String("Corrected Name"),
	}); err != nil {
		t.Fatal(err)
	}
	if n, err := p.ApplyCurationDecisions(); err != nil || n != 1 {
		t.Fatalf("applied = %d, err = %v", n, err)
	}
	if got := p.KG.Graph.Get(kgID).Name(); got != "Corrected Name" {
		t.Fatalf("stable name = %q", got)
	}
	if got, _ := p.EntityStore.Get(kgID); got == nil || got.Name() != "Corrected Name" {
		t.Fatalf("entity store name = %v", got)
	}
	// The rename must be visible to linking through the refreshed partition
	// caches: a new source entity with the corrected name links to kgID.
	d := workload.SourceSpec{Name: "s2", Count: 1, Seed: 6}.Delta()
	if _, err := p.ConsumeDelta(d); err != nil {
		t.Fatal(err)
	}
}

// hasValue reports whether vals contains v.
func hasValue(vals []triple.Value, v triple.Value) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}
