package construct

import (
	"hash/fnv"
	"sort"

	"saga/internal/triple"
)

// PartitionOfType maps an entity type to its owning construction partition:
// a stable FNV-1a hash of the type string mod the partition count.
//
// Partitioning by *type* (rather than by entity id) is what keeps the
// cross-partition protocol cheap: blocking, matching, and clustering are
// strictly per-type (GroupByType splits every delta, and the block index is
// type-partitioned), so every linking candidate of a payload entity lives in
// the owner partition of its type. Local linking is therefore already
// complete — the boundary work that remains for the exchange phase is the
// cross-type traffic that escapes linking by construction: object-resolution
// references into other partitions' entities (resolved against the shared
// link table at commit) and deferred volatile overwrites routed to the
// target's owner (flushed at batch-boundary exchanges).
func PartitionOfType(entityType string, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(entityType))
	return int(h.Sum32() % uint32(partitions))
}

// This file holds what differs per partition and the cross-partition
// exchange (docs/INVARIANTS.md#cross-partition-linking). It is two-phase:
//
//  1. Local phase: linking is strictly per-type, so every candidate pair of a
//     payload entity lives inside the owner partition of its type and
//     resolves locally against that partition's block index.
//  2. Exchange phase (N ≥ 2 only): the traffic that does cross partitions —
//     volatile overwrites whose target type another partition owns — is
//     enqueued as boundary blocks (per-target op lists with consecutive
//     same-source ops collapsed to the survivor) and exchanged at batch
//     boundaries: FlushVolatile applies every partition's backlog under the
//     commit lock, partitions in parallel, targets within a partition in
//     canonical order. Cross-partition object-resolution references need no
//     exchange: they resolve at commit through the shared link table.
//
// Deferral is invisible to every reader on the construction path: linking,
// blocking, and alias resolution read only stable predicates, and any stable
// write that would interleave with a deferred op forces that target's
// backlog to flush first (flush-on-conflict inside commit, under the same
// lock). A target's applied op sequence is therefore a collapsed replay of
// the single partition's, and collapse is exact: ApplyVolatileOverwrite
// replaces the source's whole volatile partition, so only the last
// consecutive op per (target, source) survives in either schedule.

// partition is the per-partition state: the block index over the owned
// types (nil on the full-scan reference path) and the fusion counters (the
// partition-balance signal, guarded by Pipeline.fusionMu).
type partition struct {
	index  *BlockIndex
	fusion FusionStats
}

// volatileOp is one deferred volatile overwrite: the source and the payload
// entity whose volatile partition replaces that source's previous one.
type volatileOp struct {
	source  string
	payload *triple.Entity
}

// VolatileBacklogStats counts the deferred-overwrite traffic (all zero on a
// single partition, which applies overwrites in place). Enqueued − Collapsed
// − Applied = Pending; Enqueued/Applied is the write amortization the
// deferral bought.
type VolatileBacklogStats struct {
	Enqueued  int // volatile ops routed into the backlog
	Collapsed int // ops absorbed by a consecutive same-source predecessor
	Applied   int // ops applied to the graph by flushes
	Flushes   int // FlushVolatile / flush-on-conflict sweeps that found work
	Pending   int // ops currently deferred
}

// Partitions returns the partition count.
func (p *Pipeline) Partitions() int { return len(p.parts) }

// partOfType is PartitionOfType over this pipeline's partition count.
func (p *Pipeline) partOfType(entityType string) int {
	return PartitionOfType(entityType, len(p.parts))
}

// partOfEntity routes a payload entity to the owner partition of its first
// type (deterministic: Types reflects canonical triple order), partition 0
// when untyped.
func (p *Pipeline) partOfEntity(e *triple.Entity) int {
	if types := e.Types(); len(types) > 0 {
		return p.partOfType(types[0])
	}
	return 0
}

// PartitionFusionStats reports each partition's share of the fusion
// counters, in partition order.
func (p *Pipeline) PartitionFusionStats() []FusionStats {
	p.fusionMu.Lock()
	defer p.fusionMu.Unlock()
	out := make([]FusionStats, len(p.parts))
	for i := range p.parts {
		out[i] = p.parts[i].fusion
	}
	return out
}

// BlockIndexStats aggregates the partitions' block indexes (zero on the
// full-scan path).
func (p *Pipeline) BlockIndexStats() BlockIndexStats {
	var st BlockIndexStats
	for i := range p.parts {
		ix := p.parts[i].index
		if ix == nil {
			continue
		}
		s := ix.Stats()
		st.Entities += s.Entities
		st.Types += s.Types
		st.Keys += s.Keys
		st.Probes += s.Probes
		st.Refreshes += s.Refreshes
	}
	return st
}

// VolatileStats reports the deferred-overwrite counters.
func (p *Pipeline) VolatileStats() VolatileBacklogStats {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	st := p.volStats
	for _, bl := range p.backlogs {
		for _, ops := range bl {
			st.Pending += len(ops)
		}
	}
	return st
}

// HasPending reports whether the entity has deferred volatile ops; the
// platform's publisher holds such entities back until the next exchange so
// the stores never observe a state a single partition couldn't have
// published.
func (p *Pipeline) HasPending(id triple.EntityID) bool {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	_, ok := p.pendingPart[id]
	return ok
}

// PendingVolatile returns the number of entities with deferred ops.
func (p *Pipeline) PendingVolatile() int {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	return len(p.pendingPart)
}

// enqueueVolatile routes one deferred overwrite into its target's boundary
// block, collapsing consecutive same-source ops (the overwrite replaces the
// source's whole volatile partition, so only the last consecutive op per
// source survives either way — the collapse is exact, not approximate).
func (p *Pipeline) enqueueVolatile(kgID triple.EntityID, source string, payload *triple.Entity) {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	p.volStats.Enqueued++
	pi, ok := p.pendingPart[kgID]
	if !ok {
		if e := p.KG.Graph.GetShared(kgID); e != nil {
			pi = p.partOfEntity(e)
		}
		p.pendingPart[kgID] = pi
	}
	list := p.backlogs[pi][kgID]
	if n := len(list); n > 0 && list[n-1].source == source {
		list[n-1].payload = payload
		p.volStats.Collapsed++
		return
	}
	p.backlogs[pi][kgID] = append(list, volatileOp{source: source, payload: payload})
}

// takeBacklog removes and returns the deferred ops of the given targets (all
// of them when ids is nil), grouped by owner partition, each partition's
// targets in canonical order.
func (p *Pipeline) takeBacklog(ids []triple.EntityID) [][]triple.EntityID {
	p.volatileMu.Lock()
	defer p.volatileMu.Unlock()
	if ids == nil {
		for id := range p.pendingPart {
			ids = append(ids, id)
		}
	}
	order := make([][]triple.EntityID, len(p.parts))
	for _, id := range ids {
		if pi, ok := p.pendingPart[id]; ok {
			order[pi] = append(order[pi], id)
			delete(p.pendingPart, id)
		}
	}
	for pi := range order {
		sort.Slice(order[pi], func(i, j int) bool { return order[pi][i] < order[pi][j] })
	}
	return order
}

// applyBacklog applies the taken targets' deferred ops, partitions in
// parallel on the budget (backlogs hold disjoint target sets), ops per
// target in enqueue order, and returns the flushed targets and the number of
// ops applied. Callers hold commitMu.
func (p *Pipeline) applyBacklog(order [][]triple.EntityID, b *WorkerBudget) ([]triple.EntityID, int) {
	ops := make([][][]volatileOp, len(order))
	var flushed []triple.EntityID
	applied := 0
	p.volatileMu.Lock()
	for pi, ids := range order {
		for _, id := range ids {
			list := p.backlogs[pi][id]
			delete(p.backlogs[pi], id)
			ops[pi] = append(ops[pi], list)
			applied += len(list)
			flushed = append(flushed, id)
		}
	}
	p.volatileMu.Unlock()
	if len(flushed) == 0 {
		return nil, 0
	}
	runIndexedBudget(b, p.workers(), len(order), func(pi int) {
		for i, id := range order[pi] {
			if p.KG.Graph.GetShared(id) == nil {
				continue // deleted since enqueue; nothing to overwrite
			}
			for _, op := range ops[pi][i] {
				ApplyVolatileOverwrite(p.KG.Graph, id, op.source, op.payload, p.Ont)
			}
		}
	})
	p.volatileMu.Lock()
	p.volStats.Applied += applied
	p.volStats.Flushes++
	p.volatileMu.Unlock()
	sort.Slice(flushed, func(i, j int) bool { return flushed[i] < flushed[j] })
	return flushed, applied
}

// flushTargets applies the deferred ops of exactly the given targets (callers
// hold commitMu) — flush-on-conflict, so the replay lands where a single
// partition would have put it: before this commit's stable writes. No cache
// refresh here: the targets are part of the calling commit's written set and
// refresh at its end.
func (p *Pipeline) flushTargets(ids []triple.EntityID, b *WorkerBudget) {
	p.applyBacklog(p.takeBacklog(ids), b)
}

// FlushVolatile applies every partition's deferred volatile backlog — the
// exchange phase — under the commit lock (overwrites must not slide past a
// concurrent commit's stable writes on the same targets), refreshes the
// KG-derived caches for every flushed entity, and returns the number of ops
// applied. On a single partition there is never a backlog.
func (p *Pipeline) FlushVolatile() int {
	p.commitMu.Lock()
	defer p.commitMu.Unlock()
	if p.PendingVolatile() == 0 {
		return 0
	}
	flushed, applied := p.applyBacklog(p.takeBacklog(nil), p.newBudget())
	p.RefreshKGCaches(flushed...)
	return applied
}
