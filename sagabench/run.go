package main

import (
	"fmt"
	"sync"
	"time"

	"saga/internal/construct"
	"saga/internal/core"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// run is one benchmark invocation's state.
type run struct {
	w    spec
	seed int64
	tr   *tracer
	ont  *ontology.Ontology
	dir  string
	p    *core.Platform
	in   *ingester

	e2e, layer map[string]metric
	// round is the current round; sv, ig and rs accumulate the phases'
	// measurements over rounds.
	round int
	sv    serveTotals
	ig    ingestTotals
	rs    restartTotals

	mu        sync.Mutex // guards attempted, failed, errs and refreshMS
	attempted int
	failed    int
	errs      []string
	refreshMS []float64

	// linkOf follows the link table through every batch's link deltas, and
	// dropped records (source, KG entity) pairs whose link a source entity
	// deletion removed, so the source-entity check can tell the known
	// in-source-duplicate defect from any other dangling link.
	linkOf  map[triple.EntityID]triple.EntityID
	dropped map[droppedLink]bool
}

// droppedLink is a KG entity one of source's entities stopped linking to.
type droppedLink struct {
	source string
	kgID   triple.EntityID
}

// noteLinks applies one batch's link deltas to linkOf and dropped.
func (r *run) noteLinks(stats []construct.SourceStats) {
	for _, st := range stats {
		for src, kg := range st.Links {
			r.linkOf[src] = kg
		}
		for _, src := range st.Unlinks {
			if kg, ok := r.linkOf[src]; ok {
				r.dropped[droppedLink{src.Namespace(), kg}] = true
				delete(r.linkOf, src)
			}
		}
	}
}

func (r *run) count(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("round %d: ", r.round+1)+fmt.Sprintf(format, args...))
	} else if len(r.errs) == 20 {
		r.errs = append(r.errs, "further check failures omitted")
	}
	r.mu.Unlock()
}

// setup opens a fresh platform under dir and ingests the workload's seed
// rounds through a standing feed.
func (r *run) setup(dir string) error {
	p, err := core.Open(r.w.options(dir))
	if err != nil {
		return err
	}
	r.dir, r.p = dir, p
	r.in = newIngester(r.ont, r.seed, r.w.richFacts)
	r.linkOf = make(map[triple.EntityID]triple.EntityID)
	r.dropped = make(map[droppedLink]bool)
	f, err := p.Feed(core.FeedOptions{})
	if err != nil {
		return err
	}
	var results []<-chan construct.BatchResult
	for i := 0; i < r.w.seedRounds; i++ {
		results = append(results, f.Submit(r.in.next(nil)))
	}
	err = f.Close()
	for _, ch := range results {
		res := <-ch
		if res.Err != nil && err == nil {
			err = res.Err
		}
		r.noteLinks(res.Stats)
	}
	if err != nil {
		return err
	}
	// Quiesce: a checkpoint, then a compaction, which also waits for any
	// background one, so no durability work from set-up runs into the
	// measured phases.
	if _, err := p.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = p.Compact()
	return err
}

// refresh calls RefreshServing and records its time.
func (r *run) refresh(parent uint64) time.Duration {
	sp := r.tr.begin("core.refresh", parent, 0)
	t0 := time.Now()
	r.p.RefreshServing()
	d := time.Since(t0)
	r.tr.end(sp)
	r.mu.Lock()
	r.refreshMS = append(r.refreshMS, ms(d))
	r.mu.Unlock()
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
