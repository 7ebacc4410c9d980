package experiments

import (
	"fmt"
	"runtime"
	"time"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// BatchedFusionResult is the pipelined-consume / batched-fusion ablation: the
// same commit-heavy workload (multi-delta batches whose payload entities pile
// onto shared target KG entities) consumed by the per-entity-fusion barrier
// baseline, the batched-fusion barrier path, and the batched-fusion pipelined
// path. All three must construct byte-identical KGs; the speedups isolate the
// two mechanisms of the post-index hot path: per-target fusion batching (one
// graph round-trip and one truth-discovery pass per target instead of one per
// payload) and prepare/commit overlap across the deltas of a batch.
type BatchedFusionResult struct {
	Sources   int // deltas per batch
	PerTarget int // payload entities sharing each target KG entity
	Rounds    int // update rounds after the initial load

	// Commit-phase comparison over the update rounds (linking there is pure
	// ID lookup, so wall time is fusion-dominated); both sides use barrier
	// scheduling, isolating per-target batching.
	PerEntityMS   float64 // per-entity fusion
	BatchedMS     float64 // batched fusion
	FusionSpeedup float64 // PerEntityMS / BatchedMS

	// Consume-scheduling comparison over the add-heavy initial load (real
	// linking compute per delta); both sides use batched fusion, isolating
	// the prepare/commit overlap of the pipelined path.
	LoadBarrierMS   float64
	LoadPipelinedMS float64
	PipelineSpeedup float64 // LoadBarrierMS / LoadPipelinedMS

	// Identical reports that all three paths constructed byte-identical KGs.
	Identical bool
	// Targets and Payloads are the batched run's fusion counters; their
	// ratio is the per-target amortization the workload actually exercised.
	Targets, Payloads int
}

// String renders the ablation.
func (r BatchedFusionResult) String() string {
	return fmt.Sprintf("Batched-fusion ablation: %d sources x %d payloads/target, %d update rounds; commit phase per-entity=%.1fms batched=%.1fms (%.2fx); load barrier=%.1fms pipelined=%.1fms (%.2fx); %.1f payloads/target fused; identical=%v\n",
		r.Sources, r.PerTarget, r.Rounds,
		r.PerEntityMS, r.BatchedMS, r.FusionSpeedup,
		r.LoadBarrierMS, r.LoadPipelinedMS, r.PipelineSpeedup,
		float64(r.Payloads)/float64(maxInt(r.Targets, 1)), r.Identical)
}

// fusionSource builds one source payload whose entities arrive as perTarget
// duplicate records per real-world entity (same name, so linking clusters
// them onto one target KG entity), with enough facts that fusing each record
// costs real work. Sources get disjoint entity types so the deltas of a
// batch are independent — Consume, ConsumeBarrier, and ConsumeSequential
// then agree exactly. offset shifts the universe range; round > 0 varies the
// fact payload so updates replace real content.
func fusionSource(src, typ string, offset, count, perTarget, richFacts, round int) []*triple.Entity {
	var out []*triple.Entity
	for u := offset; u < offset+count; u++ {
		for dup := 0; dup < perTarget; dup++ {
			local := fmt.Sprintf("e%d-r%d", u, dup)
			e := triple.NewEntity(triple.EntityID(src + ":" + local))
			add := func(p string, v triple.Value) { e.Add(triple.New("", p, v).WithSource(src, 0.85)) }
			add(triple.PredType, triple.String(typ))
			add(triple.PredSourceID, triple.String(local))
			add(triple.PredName, triple.String(workload.PersonName(u)))
			add(triple.PredAlias, triple.String(fmt.Sprintf("%s-%d", typ, u)))
			for f := 0; f < richFacts; f++ {
				add("occupation", triple.String(fmt.Sprintf("%s role %d round %d rec %d", src, (u+f)%7, round, dup)))
			}
			out = append(out, e)
		}
	}
	return out
}

// BatchedFusion runs the batched-fusion / pipelined-consume ablation. Each
// pipeline loads a batch of adds (clustered perTarget-to-one, so every target
// fuses a same-as carrier plus perTarget payloads in one commit — the
// linking-heavy phase the pipelined schedule overlaps), then consumes rounds
// of whole-source update batches — the commit-dominated regime, since
// updates link by ID lookup. Every timing is the minimum over reps
// repetitions, and all consume paths must construct byte-identical KGs.
// workers sizes the pipelines; 0 means GOMAXPROCS.
func BatchedFusion(workers int) (BatchedFusionResult, error) {
	ont := ontology.Default()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const sources, count, perTarget, richFacts, rounds, reps = 6, 50, 6, 8, 3, 2
	res := BatchedFusionResult{Sources: sources, PerTarget: perTarget, Rounds: rounds}

	batch := func(round int) []ingest.Delta {
		deltas := make([]ingest.Delta, sources)
		for s := 0; s < sources; s++ {
			src, typ := fmt.Sprintf("src%02d", s), fmt.Sprintf("kind%02d", s)
			ents := fusionSource(src, typ, 0, count, perTarget, richFacts, round)
			if round == 0 {
				deltas[s] = ingest.Delta{Source: src, Added: ents}
			} else {
				deltas[s] = ingest.Delta{Source: src, Updated: ents}
			}
		}
		return deltas
	}

	type runResult struct {
		loadMS, updMS float64
		kg            *construct.KG
		fusion        construct.FusionStats
	}
	run := func(perEntity, pipelined bool) (runResult, error) {
		kg := construct.NewKG()
		p := construct.NewPipeline(kg, ont, 1)
		p.Workers = workers
		p.PerEntityFusion = perEntity
		p.EnableBlockIndex()
		consume := func(deltas []ingest.Delta) error {
			var err error
			if pipelined {
				_, err = p.Consume(deltas)
			} else {
				_, err = p.ConsumeBarrier(deltas)
			}
			return err
		}
		out := runResult{kg: kg}
		start := time.Now()
		if err := consume(batch(0)); err != nil {
			return out, err
		}
		out.loadMS = float64(time.Since(start).Microseconds()) / 1000
		start = time.Now()
		for r := 1; r <= rounds; r++ {
			if err := consume(batch(r)); err != nil {
				return out, err
			}
		}
		out.updMS = float64(time.Since(start).Microseconds()) / 1000
		out.fusion = p.FusionStats()
		return out, nil
	}

	minMS := func(cur, v float64) float64 {
		if cur == 0 || v < cur {
			return v
		}
		return cur
	}
	for rep := 0; rep < reps; rep++ {
		perEnt, err := run(true, false)
		if err != nil {
			return res, err
		}
		barrier, err := run(false, false)
		if err != nil {
			return res, err
		}
		pipe, err := run(false, true)
		if err != nil {
			return res, err
		}
		res.PerEntityMS = minMS(res.PerEntityMS, perEnt.updMS)
		res.BatchedMS = minMS(res.BatchedMS, barrier.updMS)
		res.LoadBarrierMS = minMS(res.LoadBarrierMS, barrier.loadMS)
		res.LoadPipelinedMS = minMS(res.LoadPipelinedMS, pipe.loadMS)
		if rep == 0 {
			res.Targets, res.Payloads = barrier.fusion.Targets, barrier.fusion.Payloads
			res.Identical = graphsIdentical(perEnt.kg, barrier.kg) && graphsIdentical(barrier.kg, pipe.kg)
		}
	}
	res.FusionSpeedup = res.PerEntityMS / res.BatchedMS
	res.PipelineSpeedup = res.LoadBarrierMS / res.LoadPipelinedMS
	return res, nil
}
