package construct_test

// Serving-path concurrency coverage for the sharded copy-on-write graph:
// Consume runs while snapshot and range readers hammer the same KG. Run with
// -race. The assertions are the COW contract the serving side relies on —
// every snapshot is frozen at its cut (a snapshot taken before a batch stays
// byte-identical to the batch-start state forever), while the live graph
// keeps advancing underneath the readers.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

func TestConsumeConcurrentWithSnapshotAndRangeReaders(t *testing.T) {
	ont := ontology.Default()
	kg := construct.NewKG()
	p := construct.NewPipeline(kg, ont, 1)
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

	if _, err := p.Consume(batch(0)); err != nil {
		t.Fatal(err)
	}
	batchStart := kg.Graph.Snapshot()
	startTriples := batchStart.Triples()
	startLen := batchStart.Len()

	const rounds = 6
	done := make(chan error, 1)
	go func() {
		for r := 1; r <= rounds; r++ {
			if _, err := p.Consume(batch(r)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// Reader loop: snapshots must be internally frozen even while commits
	// land, and the clone-free bulk reads must tolerate concurrent writers.
	for {
		snap := kg.Graph.Snapshot()
		before := snap.Triples()
		runtime.Gosched()
		if after := snap.Triples(); !reflect.DeepEqual(before, after) {
			t.Fatal("mid-flight snapshot changed while Consume committed")
		}
		seen := 0
		kg.Graph.RangeShared(func(e *triple.Entity) bool {
			seen++
			_ = e.Types()
			_ = e.Name()
			return true
		})
		if seen < startLen {
			t.Fatalf("live graph shrank below batch-start size: %d < %d", seen, startLen)
		}
		_ = kg.Graph.Stats()
		_ = kg.Graph.IDsByType("human0")
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// The pre-batch snapshot is frozen at batch-start state: later
			// commits never leak into it.
			if !reflect.DeepEqual(batchStart.Triples(), startTriples) {
				t.Fatal("batch-start snapshot saw later commits")
			}
			if batchStart.Len() != startLen {
				t.Fatalf("batch-start snapshot Len moved: %d != %d", batchStart.Len(), startLen)
			}
			// ... while the live graph advanced past it.
			if kg.Graph.Len() <= startLen {
				t.Fatalf("live graph did not advance: %d <= %d", kg.Graph.Len(), startLen)
			}
			return
		default:
		}
	}
}

// TestSnapshotMatchesSequentialStateBetweenBatches pins the snapshot content
// (not just its stability): with commits serialized, a snapshot taken between
// two Consume batches equals the KG a sequential run reaches after the same
// prefix of batches — byte for byte.
func TestSnapshotMatchesSequentialStateBetweenBatches(t *testing.T) {
	ont := ontology.Default()
	build := func(workers int) (*construct.KG, *construct.Pipeline) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ont, 1)
		p.Workers = workers
		p.EnableBlockIndex()
		return kg, p
	}
	batch := func(round int) []ingest.Delta {
		spec := workload.SourceSpec{
			Name: fmt.Sprintf("s%d", round), Type: "human",
			Offset: round * 40, Count: 40,
			DupRate: 0.1, Seed: int64(round),
		}
		return []ingest.Delta{spec.Delta()}
	}
	kgPar, par := build(4)
	kgSeq, seq := build(1)
	var snaps []*triple.Graph
	for r := 0; r < 3; r++ {
		if _, err := par.Consume(batch(r)); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, kgPar.Graph.Snapshot())
	}
	for r := 0; r < 3; r++ {
		if _, err := seq.Consume(batch(r)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snaps[r].Triples(), kgSeq.Graph.Triples()) {
			t.Fatalf("snapshot after batch %d diverged from sequential prefix state", r)
		}
	}
}
