package construct

// Standing-feed coverage: the feed must construct a KG byte-identical to
// back-to-back Consume calls over the same batches (across worker counts and
// batch shapes), fast-path empty and single-delta batches, and quiesce
// cleanly when a batch fails mid-commit — prefix applied, publisher drained
// in order, later batches still committing.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/workload"
)

// feedWorkload builds `rounds` update rounds over `sources` per-type-disjoint
// sources: round 0 adds, later rounds send whole-source updates over a
// shifted universe window so every round mixes ID-lookup updates with fresh
// adds that exercise real linking.
func feedWorkload(rounds, sources, count int) [][]ingest.Delta {
	batches := make([][]ingest.Delta, rounds)
	for r := range batches {
		deltas := make([]ingest.Delta, sources)
		for s := range deltas {
			spec := workload.SourceSpec{
				Name:   fmt.Sprintf("src%02d", s),
				Type:   fmt.Sprintf("kind%02d", s),
				Offset: r * 5, Count: count,
				DupRate: 0.1, TypoRate: 0.1, RichFacts: 2,
				Seed: int64(r*100 + s + 1),
			}
			if r == 0 {
				deltas[s] = spec.Delta()
			} else {
				deltas[s] = ingest.Delta{Source: spec.Name, Updated: spec.Entities()}
			}
		}
		batches[r] = deltas
	}
	return batches
}

// reshape regroups a batch sequence without reordering deltas, so a feed and
// a serial consumer see the same batches under a different batch shape.
func reshape(batches [][]ingest.Delta, shape string) [][]ingest.Delta {
	var flat []ingest.Delta
	for _, b := range batches {
		flat = append(flat, b...)
	}
	switch shape {
	case "perRound":
		return batches
	case "singleton":
		out := make([][]ingest.Delta, 0, len(flat))
		for i := range flat {
			out = append(out, flat[i:i+1])
		}
		return out
	case "mixed":
		// Uneven splits, including an empty batch in the middle.
		var out [][]ingest.Delta
		for lo, n := 0, 1; lo < len(flat); n++ {
			hi := lo + n
			if hi > len(flat) {
				hi = len(flat)
			}
			out = append(out, flat[lo:hi])
			if n == 2 {
				out = append(out, nil)
			}
			lo = hi
		}
		return out
	}
	panic("unknown shape " + shape)
}

func newFeedPipeline(workers int) (*KG, *Pipeline) {
	kg := NewKG()
	p := NewPipeline(kg, ontology.Default(), 1)
	p.Workers = workers
	p.EnableBlockIndex()
	return kg, p
}

// TestFeedMatchesSerialConsume is the byte-identity property: a feed over
// batches B1..Bk constructs exactly the KG of Consume(B1)..Consume(Bk),
// per-batch stats included, across worker counts and batch shapes.
func TestFeedMatchesSerialConsume(t *testing.T) {
	base := feedWorkload(4, 3, 12)
	for _, workers := range []int{1, 3} {
		for _, shape := range []string{"perRound", "singleton", "mixed"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, shape), func(t *testing.T) {
				batches := reshape(base, shape)

				serialKG, serial := newFeedPipeline(workers)
				serialStats := make([][]SourceStats, len(batches))
				for i, b := range batches {
					stats, err := serial.Consume(b)
					if err != nil {
						t.Fatal(err)
					}
					serialStats[i] = stats
				}

				feedKG, fp := newFeedPipeline(workers)
				// Tiny queues so backpressure paths run, not just buffers.
				f := NewFeed(fp, FeedOptions{Queue: 2, PublishQueue: 1})
				results := make([]<-chan BatchResult, len(batches))
				for i, b := range batches {
					results[i] = f.Submit(b)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				for i, ch := range results {
					res := <-ch
					if res.Err != nil {
						t.Fatalf("batch %d: %v", i, res.Err)
					}
					want := serialStats[i]
					if len(want) == 0 {
						want = make([]SourceStats, 0)
					}
					if len(res.Stats) != len(want) {
						t.Fatalf("batch %d: stats len %d vs %d", i, len(res.Stats), len(want))
					}
					for j := range want {
						if !reflect.DeepEqual(res.Stats[j], want[j]) {
							t.Fatalf("batch %d delta %d stats diverged:\nfeed   %+v\nserial %+v", i, j, res.Stats[j], want[j])
						}
					}
				}
				if got, want := graphBytes(t, feedKG), graphBytes(t, serialKG); got != want {
					t.Fatalf("feed KG diverged from serial Consume")
				}
				st := f.Stats()
				if st.Submitted != len(batches) || st.Failed != 0 || st.Committed != len(batches) {
					t.Fatalf("feed stats = %+v over %d batches", st, len(batches))
				}
			})
		}
	}
}

// TestFeedEmptyAndSingleDeltaFastPath: an empty batch resolves immediately
// without occupying the commit loop, and a single-delta batch takes the
// inline path yet produces exactly ConsumeDelta's outcome.
func TestFeedEmptyAndSingleDeltaFastPath(t *testing.T) {
	refKG, ref := newFeedPipeline(2)
	delta := feedWorkload(1, 1, 8)[0][0]
	wantStats, err := ref.ConsumeDelta(delta)
	if err != nil {
		t.Fatal(err)
	}

	kg, p := newFeedPipeline(2)
	f := NewFeed(p, FeedOptions{})
	empty := <-f.Submit(nil)
	if empty.Err != nil || len(empty.Stats) != 0 {
		t.Fatalf("empty batch result = %+v", empty)
	}
	single := <-f.Submit([]ingest.Delta{delta})
	if single.Err != nil {
		t.Fatal(single.Err)
	}
	if !reflect.DeepEqual(single.Stats[0], wantStats) {
		t.Fatalf("single-delta stats diverged:\nfeed %+v\nref  %+v", single.Stats[0], wantStats)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := graphBytes(t, kg), graphBytes(t, refKG); got != want {
		t.Fatal("single-delta feed KG diverged from ConsumeDelta")
	}
	st := f.Stats()
	if st.Submitted != 2 || st.Committed != 2 || st.Published != 2 || st.Failed != 0 {
		t.Fatalf("feed stats = %+v", st)
	}
}

// addBatch builds one batch of independent add deltas with the given source
// names (each source gets its own entity type).
func addBatch(names ...string) []ingest.Delta {
	deltas := make([]ingest.Delta, len(names))
	for i, name := range names {
		spec := workload.SourceSpec{
			Name: name, Type: "type-" + name,
			Count: 6, RichFacts: 1, Seed: int64(i + 1),
		}
		deltas[i] = spec.Delta()
	}
	return deltas
}

// TestFeedFailedBatchQuiesces: a mid-batch commit failure must settle the
// batch cleanly — committed prefix applied and handed to the publish stage in
// order, error delivered with the prefix stats — while later batches keep
// committing against consistent KG caches.
func TestFeedFailedBatchQuiesces(t *testing.T) {
	failErr := errors.New("injected commit failure")
	hook := func(src string) error {
		if src == "xbad" {
			return failErr
		}
		return nil
	}
	b1, b2, b3 := addBatch("a0", "a1"), addBatch("x0", "xbad", "x2"), addBatch("y0", "y1")

	// Reference: the same batches through Consume with the same failure.
	refKG, ref := newFeedPipeline(2)
	ref.commitHook = hook
	if _, err := ref.Consume(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Consume(b2); err == nil {
		t.Fatal("reference consume should fail")
	}
	if _, err := ref.Consume(b3); err != nil {
		t.Fatal(err)
	}

	kg, p := newFeedPipeline(2)
	p.commitHook = hook
	var published []uint64
	f := NewFeed(p, FeedOptions{
		Publish: func(group []*FeedBatch) error {
			for _, b := range group {
				published = append(published, b.Seq)
			}
			return nil
		},
	})
	r1, r2, r3 := f.Submit(b1), f.Submit(b2), f.Submit(b3)
	if err := <-waitErr(r1); err != nil {
		t.Fatal(err)
	}
	res2 := <-r2
	var be *BatchError
	if !errors.As(res2.Err, &be) || be.Index != 1 || !errors.Is(res2.Err, failErr) {
		t.Fatalf("batch 2 error = %v", res2.Err)
	}
	if res2.Stats[0].Source != "x0" || res2.Stats[0].LinkedAdds == 0 {
		t.Fatalf("committed prefix stats missing: %+v", res2.Stats[0])
	}
	if res2.Stats[1].Source != "" || res2.Stats[2].Source != "" {
		t.Fatalf("uncommitted deltas have stats: %+v", res2.Stats[1:])
	}
	if err := <-waitErr(r3); err != nil {
		t.Fatalf("batch after failed batch did not commit: %v", err)
	}
	closeErr := f.Close()
	if !errors.Is(closeErr, failErr) {
		t.Fatalf("Close sticky error = %v", closeErr)
	}
	// Publisher drained every batch, in commit order, failed one included.
	if !reflect.DeepEqual(published, []uint64{1, 2, 3}) {
		t.Fatalf("publish order = %v", published)
	}
	if got, want := graphBytes(t, kg), graphBytes(t, refKG); got != want {
		t.Fatal("feed KG after failed batch diverged from reference prefix semantics")
	}
	st := f.Stats()
	if st.Submitted != 3 || st.Committed != 2 || st.Failed != 1 || st.Published != 3 {
		t.Fatalf("feed stats = %+v", st)
	}
}

// waitErr adapts a result channel to an error channel.
func waitErr(ch <-chan BatchResult) <-chan error {
	out := make(chan error, 1)
	go func() { out <- (<-ch).Err }()
	return out
}

// TestFeedValidationErrorFastFail: a bad batch fails at Submit, commits
// nothing, and leaves the feed running.
func TestFeedValidationErrorFastFail(t *testing.T) {
	kg, p := newFeedPipeline(2)
	f := NewFeed(p, FeedOptions{})
	bad := addBatch("ok")
	bad[0].Added = append(bad[0].Added, nil)
	res := <-f.Submit(bad)
	if res.Err == nil {
		t.Fatal("invalid batch did not error")
	}
	if kg.Graph.Len() != 0 {
		t.Fatal("invalid batch committed entities")
	}
	if err := <-waitErr(f.Submit(addBatch("good"))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close should return the sticky validation error")
	}
	if kg.Graph.Len() == 0 {
		t.Fatal("good batch did not commit")
	}
}

// TestFeedSubmitAfterClose: submissions after Close resolve immediately with
// ErrFeedClosed, and Close is idempotent.
func TestFeedSubmitAfterClose(t *testing.T) {
	_, p := newFeedPipeline(1)
	f := NewFeed(p, FeedOptions{})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !f.Closed() {
		t.Fatal("feed not closed")
	}
	res := <-f.Submit(addBatch("late"))
	if !errors.Is(res.Err, ErrFeedClosed) {
		t.Fatalf("submit after close = %v", res.Err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close = %v", err)
	}
}

// TestConsumeMidBatchCommitErrorPrefix pins the partial-prefix contract on
// the batch consume paths themselves: a commit failure at delta i leaves
// deltas [0, i) applied with stats filled, nothing at or after i applied,
// the error typed as *BatchError, and the pipeline's caches consistent (the
// remaining deltas re-consume cleanly afterwards).
func TestConsumeMidBatchCommitErrorPrefix(t *testing.T) {
	failErr := errors.New("boom")
	batch := addBatch("c0", "c1", "cbad", "c3")
	consumes := []struct {
		name string
		run  func(p *Pipeline, ds []ingest.Delta) ([]SourceStats, error)
	}{
		{"pipelined", func(p *Pipeline, ds []ingest.Delta) ([]SourceStats, error) { return p.Consume(ds) }},
		{"barrier", func(p *Pipeline, ds []ingest.Delta) ([]SourceStats, error) { return p.ConsumeBarrier(ds) }},
	}
	for _, c := range consumes {
		t.Run(c.name, func(t *testing.T) {
			// Expectation: just the prefix, on a clean pipeline.
			wantKG, wantP := newFeedPipeline(2)
			if _, err := wantP.Consume(batch[:2]); err != nil {
				t.Fatal(err)
			}

			kg, p := newFeedPipeline(2)
			p.commitHook = func(src string) error {
				if src == "cbad" {
					return failErr
				}
				return nil
			}
			stats, err := c.run(p, batch)
			var be *BatchError
			if !errors.As(err, &be) || be.Index != 2 || !errors.Is(err, failErr) {
				t.Fatalf("error = %v", err)
			}
			if stats[0].LinkedAdds == 0 || stats[1].LinkedAdds == 0 {
				t.Fatalf("prefix stats missing: %+v", stats[:2])
			}
			if stats[2].Source != "" || stats[3].Source != "" {
				t.Fatalf("stats filled past the failure: %+v", stats[2:])
			}
			if got, want := graphBytes(t, kg), graphBytes(t, wantKG); got != want {
				t.Fatal("KG does not equal the committed prefix")
			}
			// Caches stayed transactional with the prefix: the rest of the
			// batch consumes cleanly once the failure clears.
			p.commitHook = nil
			if _, err := c.run(p, batch[2:]); err != nil {
				t.Fatal(err)
			}
			if _, ok := kg.Lookup("cbad:e0"); !ok {
				t.Fatal("failed delta did not consume after the error cleared")
			}
		})
	}
}
