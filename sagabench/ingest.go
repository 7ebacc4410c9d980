package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"saga/internal/core"
)

// feedSession is one closed-loop standing-feed session's measurements.
type feedSession struct {
	sourceEntities int
	elapsed        time.Duration
	batches        int
	failed         int
	wait           time.Duration
	batchMS        []float64
	published      int
	publishGroups  int
}

// runFeed opens a standing feed and, for d, submits one ingester round at
// a time, awaiting each batch's result before preparing the next (a closed
// loop of depth one, so every batch publishes alone and the work per batch
// does not depend on how far the publisher lags). It stops at the end of an
// update-and-churn cycle, so every session has the same mix of rounds, and
// then closes the feed.
func (r *run) runFeed(d time.Duration, parent uint64) (feedSession, error) {
	in := r.in
	var fs feedSession
	f, err := r.p.Feed(core.FeedOptions{})
	if err != nil {
		return fs, err
	}
	s0 := in.sourceEntities
	start := time.Now()
	for time.Since(start) < d || !in.cycleStart() {
		var dsp openSpan
		batch := in.next(func(begin bool) {
			if begin {
				dsp = r.tr.begin("ingest.delta", parent, 0)
			} else {
				r.tr.end(dsp)
			}
		})
		fs.batches++
		sp := r.tr.begin("construct.batch", parent, uint64(fs.batches))
		t := time.Now()
		ch := f.Submit(batch)
		fs.wait += time.Since(t)
		res := <-ch
		fs.batchMS = append(fs.batchMS, ms(time.Since(t)))
		r.tr.end(sp)
		r.noteLinks(res.Stats)
		if res.Err != nil {
			fs.failed++
			r.fail("ingest batch %d: %v", res.Seq, res.Err)
		}
	}
	closeErr := f.Close()
	fs.elapsed = time.Since(start)
	fs.sourceEntities = in.sourceEntities - s0
	st := f.Stats()
	fs.published, fs.publishGroups = st.Published, st.PublishGroups
	if closeErr != nil {
		return fs, fmt.Errorf("feed close: %w", closeErr)
	}
	return fs, nil
}

// ingestSession is the least length of one feed session in the ingest
// phase: ten to fifteen rounds, so two to four whole cycles.
const ingestSession = time.Second

// ingestTotals accumulates the ingest segments of every round: session
// rates, batch latencies, explicit checkpoint times and per-round counter
// deltas summed by name.
type ingestTotals struct {
	rates, batchMS, ckptMS []float64
	sum                    map[string]float64
	lag                    uint64
}

// ingestPhase runs closed-loop feed sessions for budget, so one stall (a
// compaction, a noisy neighbour) moves one session, not the median. It then
// takes an explicit checkpoint and checks the KG against the replica and the
// sources.
func (r *run) ingestPhase(budget time.Duration) error {
	p, in := r.p, r.in
	runtime.GC() // the serve phase's garbage is not this phase's cost
	ph := r.tr.begin("phase.ingest", 0, 0)
	t := &r.ig
	if t.sum == nil {
		t.sum = map[string]float64{}
	}
	st0 := p.Stats()
	ds0 := p.DurabilityStats()
	lsn0 := p.Engine.Log.LastLSN()
	d0NS, d0E := in.deltaNS, in.deltaEntities
	lagStop, lagMax := r.sampleLag()
	sessions := max(2, int(budget/ingestSession))
	batches, failed := 0, 0
	for i := 0; i < sessions; i++ {
		fs, err := r.runFeed(budget/time.Duration(sessions), ph.id)
		if err != nil {
			close(lagStop)
			<-lagMax
			return err
		}
		t.rates = append(t.rates, float64(fs.sourceEntities)/fs.elapsed.Seconds())
		t.batchMS = append(t.batchMS, fs.batchMS...)
		t.sum["wait_ms"] += ms(fs.wait)
		t.sum["published"] += float64(fs.published)
		t.sum["groups"] += float64(fs.publishGroups)
		batches += fs.batches
		failed += fs.failed
	}
	close(lagStop)
	t.lag = max(t.lag, <-lagMax)
	r.count(batches, failed)

	csp := r.tr.begin("core.checkpoint", ph.id, 0)
	t0 := time.Now()
	_, err := p.Checkpoint()
	t.ckptMS = append(t.ckptMS, ms(time.Since(t0)))
	r.tr.end(csp)
	r.count(1, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// An explicit compaction waits for any background one and leaves the
	// log in the same state on every run before the restarts.
	csp = r.tr.begin("core.compact", ph.id, 0)
	cs, err := p.Compact()
	r.tr.end(csp)
	r.count(1, 0)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	r.tr.end(ph)

	// Output checks: the graph replica equals the KG, and every source
	// entity resolves to a KG entity. One known construction defect is
	// counted instead of failed: when a source deletes one of two records
	// linked to the same KG entity (an in-source duplicate), the delete
	// strips the source's whole contribution, and if no other source
	// contributes the KG entity goes while the surviving record still links
	// to it. Any other dangling link fails the run.
	if !reflect.DeepEqual(p.KG.Graph.Triples(), p.GraphReplica.Triples()) {
		r.fail("ingest: graph replica triples differ from the KG's")
	}
	dangling := 0
	for _, id := range in.sourceEntityIDs() {
		kg, ok := p.KG.Lookup(id)
		switch {
		case ok && p.KG.Graph.Has(kg):
		case ok && r.dropped[droppedLink{id.Namespace(), kg}]:
			dangling++
		default:
			r.fail("ingest: source entity %s does not resolve to a KG entity (link %q)", id, kg)
		}
	}

	st := p.Stats()
	ds := p.DurabilityStats()
	for k, v := range map[string]int{
		"batches":        batches,
		"failed":         failed,
		"ops":            int(p.Engine.Log.LastLSN() - lsn0),
		"delta_entities": in.deltaEntities - d0E,
		"block_probes":   st.BlockIndex.Probes - st0.BlockIndex.Probes,
		"payloads":       st.Fusion.Payloads - st0.Fusion.Payloads,
		"targets":        st.Fusion.Targets - st0.Fusion.Targets,
		"volatile_enq":   st.Volatile.Enqueued - st0.Volatile.Enqueued,
		"volatile_coll":  st.Volatile.Collapsed - st0.Volatile.Collapsed,
		"flushes":        st.Volatile.Flushes - st0.Volatile.Flushes,
		"checkpoints":    ds.Checkpoints - ds0.Checkpoints,
		"compactions":    ds.Compactions - ds0.Compactions,
		"compacted_away": cs.OpsBefore - cs.OpsAfter,
	} {
		t.sum[k] += float64(v)
	}
	t.sum["delta_ms"] += float64(in.deltaNS-d0NS) / 1e6
	// State at the end of the last round.
	disk := dirBytes(r.dir)
	L := r.layer
	L["construct.kg_entities"] = metric{float64(st.Graph.Entities), "entities"}
	L["construct.kg_facts"] = metric{float64(st.Graph.Facts), "facts"}
	L["construct.links"] = metric{float64(st.Links), "links"}
	L["construct.dangling_links"] = metric{float64(dangling), "links"}
	L["storage.disk_bytes"] = metric{float64(disk), "bytes"}
	L["storage.bytes_per_fact"] = metric{ratio(int(disk), st.Graph.Facts), "B/fact"}
	return nil
}

// ingestMetrics reports the ingest segments of every round.
func (r *run) ingestMetrics() {
	t := &r.ig
	s := t.sum
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.e2e["ingest_entities_per_s"] = metric{median(t.rates), "entities/s"}
	L := r.layer
	L["ingest.delta_ms"] = metric{s["delta_ms"], "ms"}
	L["ingest.delta_entities"] = metric{s["delta_entities"], "entities"}
	L["construct.batch_p50_ms"] = metric{median(t.batchMS), "ms"}
	L["construct.submit_wait_ms"] = metric{s["wait_ms"], "ms"}
	L["construct.batches_failed"] = metric{s["failed"], "count"}
	L["construct.block_probes"] = metric{s["block_probes"], "count"}
	L["construct.fusion_payloads_per_target"] = metric{div(s["payloads"], s["targets"]), "ratio"}
	L["construct.volatile_enqueued"] = metric{s["volatile_enq"], "ops"}
	L["construct.volatile_collapsed"] = metric{s["volatile_coll"], "ops"}
	L["construct.exchange_flushes"] = metric{s["flushes"], "count"}
	L["construct.batches_per_publish_group"] = metric{div(s["published"], s["groups"]), "ratio"}
	L["oplog.ops"] = metric{s["ops"], "ops"}
	L["oplog.ops_per_batch"] = metric{div(s["ops"], s["batches"]), "ops"}
	L["graphengine.agent_lag_max_ops"] = metric{float64(t.lag), "ops"}
	L["core.checkpoint_ms"] = metric{median(t.ckptMS), "ms"}
	L["core.checkpoints"] = metric{s["checkpoints"], "count"}
	L["core.compactions"] = metric{s["compactions"], "count"}
	L["core.compaction_ops_removed"] = metric{s["compacted_away"], "ops"}
}

// sampleLag samples the largest agent lag behind the log head every 10ms
// until stop is closed, then sends the maximum.
func (r *run) sampleLag() (stop chan struct{}, maxLag chan uint64) {
	stop, maxLag = make(chan struct{}), make(chan uint64, 1)
	go func() {
		var m uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			for _, a := range r.p.Engine.Agents() {
				m = max(m, r.p.Engine.Freshness(a))
			}
			select {
			case <-stop:
				maxLag <- m
				return
			case <-tick.C:
			}
		}
	}()
	return stop, maxLag
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
