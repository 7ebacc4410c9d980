package construct_test

// Concurrency coverage for the standing feed: the feed commits batch after
// batch while serving-side readers — COW snapshots, shared range scans,
// graph stats, conflict drains, and feed drains — hammer the same KG. Run
// with -race. The assertions are the serving contract: snapshots stay frozen
// at their cut while the feed advances the live graph, and every submitted
// batch resolves.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

func TestFeedConcurrentWithServingReaders(t *testing.T) {
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ontology.Default(), 1)
	p.Workers = 4
	p.EnableBlockIndex()

	batch := func(round int) []ingest.Delta {
		deltas := make([]ingest.Delta, 3)
		for s := range deltas {
			spec := workload.SourceSpec{
				Name: fmt.Sprintf("src%d-%d", s, round),
				Type: fmt.Sprintf("human%d", s),
				// Fresh universe range per round so the KG keeps growing.
				Offset: round*60 + s*20, Count: 20,
				DupRate: 0.1, TypoRate: 0.1, Seed: int64(round*10 + s),
			}
			deltas[s] = spec.Delta()
		}
		return deltas
	}

	// Seed one batch synchronously, freeze its state, then run the feed.
	if _, err := p.Consume(batch(0)); err != nil {
		t.Fatal(err)
	}
	batchStart := kg.Graph.Snapshot()
	startTriples := batchStart.Triples()

	published := 0
	f := construct.NewFeed(p, construct.FeedOptions{
		Queue: 2, PublishQueue: 1,
		Publish: func(group []*construct.FeedBatch) error {
			// The publisher overlaps the commit loop; shared reads of the
			// advancing graph from here must be race-free.
			for _, b := range group {
				for _, st := range b.Stats {
					for _, id := range st.Touched {
						if e := kg.Graph.GetShared(id); e != nil {
							published++
						}
					}
				}
			}
			return nil
		},
	})

	const rounds = 6
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
					snap := kg.Graph.Snapshot()
					if snap.Len() < batchStart.Len() {
						t.Error("snapshot shrank below batch-start state")
						return
					}
				case 1:
					kg.Graph.RangeShared(func(e *triple.Entity) bool { return true })
					_ = kg.Graph.Stats()
				case 2:
					_ = p.DrainConflicts()
					_ = f.Stats()
					_ = f.Drain()
				}
			}
		}(r)
	}

	results := make([]<-chan construct.BatchResult, 0, rounds)
	for r := 1; r <= rounds; r++ {
		results = append(results, f.Submit(batch(r)))
	}
	for i, ch := range results {
		if res := <-ch; res.Err != nil {
			t.Fatalf("batch %d: %v", i+1, res.Err)
		}
	}
	close(stop)
	readers.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if published == 0 {
		t.Fatal("publisher saw no touched entities")
	}
	// The pre-feed snapshot stayed frozen at its cut.
	if !reflect.DeepEqual(batchStart.Triples(), startTriples) {
		t.Fatal("batch-start snapshot moved while the feed advanced the KG")
	}
	if kg.Graph.Len() <= batchStart.Len() {
		t.Fatal("feed did not grow the KG")
	}
}
