package construct

import (
	"fmt"
	"sort"
	"sync"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// Pipeline is the continuously running, delta-based knowledge construction
// framework (§2.4, Figure 5). It always operates on source diffs: a brand-new
// source arrives as a full Added payload.
//
// Construction is sharded across N ≥ 1 partitions over one shared KG: entity
// types hash to an owner partition (PartitionOfType), each partition keeps
// its own block index over its owned types and its own fusion counters, and
// a commit's fusion work fans out across partitions on the worker budget,
// while minting, linking, and object resolution run once per commit in
// canonical input order. Serving needs no merge step — every partition writes
// the one shared Graph, link table, and derived caches. At N=1 the single
// partition owns every type and the schedule below is the whole story; at
// N ≥ 2 volatile overwrites additionally defer to the owner partition's
// backlog and apply at exchange points (see partition.go and
// docs/INVARIANTS.md#cross-partition-linking). Every N constructs the same KG.
//
// Commit-pipeline invariants (what may overlap, what serializes):
//
//   - Validation of every delta in a Consume batch completes before the first
//     commit, so a batch containing a bad delta leaves the KG untouched.
//   - The snapshot phase — every KG read a delta's linking needs (link-index
//     lookups, block-index probes or KG-view materialization, candidate
//     loading) — runs for the whole batch against the KG state at batch
//     start, before any commit. Deltas of one batch therefore never link
//     against each other's output; with the block index enabled this phase is
//     O(|delta|) per delta, which is what makes pipelining cheap.
//   - The compute phase (blocking on the scan path, pair scoring, component
//     clustering) is pure and runs concurrently on the worker pool — across
//     deltas and, within a delta, across type groups and candidate-graph
//     components. It may overlap any commit.
//   - Commits serialize under the commit lock in input order: commit i starts
//     as soon as compute i and commit i−1 are both done (pipelined Consume),
//     so delta i's fusion overlaps delta j's compute for j > i. Every graph
//     write — minting, object resolution, stub creation, fusion, index and
//     resolver-cache maintenance — happens inside a commit (or an exchange,
//     under the same lock), in an order fixed by the input alone.
//
// A parallel, pipelined, partitioned run therefore writes a KG byte-identical
// to a sequential single-partition one.
type Pipeline struct {
	// KG is the graph under construction; all partitions write it.
	KG *KG
	// Ont is the shared ontology.
	Ont *ontology.Ontology
	// Link configures the linking stage.
	Link LinkParams
	// Fuser merges payloads; nil gets a default wired to Ont.
	Fuser *Fuser
	// Resolver performs object resolution. Nil maintains an incremental
	// AliasResolver over the KG: built once from the graph, then invalidated
	// from each commit's touched/removed entity sets.
	Resolver ObjectResolver
	// Workers bounds intra-delta parallelism (and Consume's cross-delta
	// preparation): 0 means GOMAXPROCS, 1 forces the sequential reference
	// path. The produced KG is identical for every value.
	Workers int
	// PerEntityFusion opts the commit phase out of batched per-target fusion
	// and fuses payload entities one Graph.Update round-trip at a time — the
	// pre-batching reference path, kept as the ablation baseline the
	// batchedfusion experiment and benchmark measure against.
	PerEntityFusion bool

	// commitHook, when set (tests only), runs at the start of every
	// commitDelta under the commit lock, before any graph write; a non-nil
	// error aborts that delta's commit cleanly, leaving the KG and the
	// KG-derived caches exactly as the previous commit left them. It exists
	// to exercise the mid-batch commit-error contract, which no production
	// commit path currently triggers on its own.
	commitHook func(source string) error

	// parts holds the per-partition state: the owned block index (nil until
	// EnableBlockIndex — the full-scan reference path) and fusion counters.
	parts []partition

	// commitMu is the commit lock: commits and volatile exchanges serialize
	// under it (volatile overwrite and stable fusion on one target do not
	// commute, so exchanges cannot slide past commits).
	commitMu    sync.Mutex
	conflictsMu sync.Mutex
	conflicts   []Conflict

	// resolverMu guards the lazily built alias-resolver cache; the resolver
	// itself is internally synchronized so commits can read it while curation
	// refreshes it.
	resolverMu    sync.Mutex
	aliasResolver *AliasResolver

	// fusionMu guards fusion and every partition's fusion counters.
	fusionMu sync.Mutex
	fusion   FusionStats

	// volatileMu guards the deferred-overwrite backlog (N ≥ 2 only).
	// backlogs[i] holds the boundary blocks owned by partition i; pendingPart
	// pins each pending target to the partition that first enqueued it, so a
	// target whose type set changes mid-window cannot end up split across two
	// partitions (the per-target op order must stay total).
	volatileMu  sync.Mutex
	backlogs    []map[triple.EntityID][]volatileOp
	pendingPart map[triple.EntityID]int
	volStats    VolatileBacklogStats
}

// FusionStats counts the commit phase's fusion traffic. Payloads/Targets is
// the batching amortization: how many payload entities (same-as carriers,
// adds, updates) merged per fused KG entity, each target costing one graph
// round-trip and one conflict-resolution pass on the batched path.
type FusionStats struct {
	Commits  int // commitDelta invocations
	Targets  int // distinct KG entities fused
	Payloads int // payload entities merged into those targets
}

// FusionStats reports the accumulated fusion counters.
func (p *Pipeline) FusionStats() FusionStats {
	p.fusionMu.Lock()
	defer p.fusionMu.Unlock()
	return p.fusion
}

// workers resolves the pipeline's effective worker count.
func (p *Pipeline) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return effectiveWorkers(p.Link.Workers)
}

// NewPipeline wires a construction pipeline with the given partition count
// (< 1 means 1) over the shared KG and ontology, with default linking and
// fusion parameters.
func NewPipeline(kg *KG, ont *ontology.Ontology, partitions int) *Pipeline {
	if partitions < 1 {
		partitions = 1
	}
	p := &Pipeline{KG: kg, Ont: ont, Fuser: &Fuser{Ont: ont}}
	p.parts = make([]partition, partitions)
	p.backlogs = make([]map[triple.EntityID][]volatileOp, partitions)
	for i := range p.backlogs {
		p.backlogs[i] = make(map[triple.EntityID][]volatileOp)
	}
	p.pendingPart = make(map[triple.EntityID]int)
	return p
}

// EnableBlockIndex builds one block index per partition, restricted to the
// partition's owned types, from the KG's current state (the one full scan
// it ever performs) over the pipeline's linking blocker, and switches
// linking to the incremental path. Call after wiring Link and before
// consuming deltas; every subsequent commit keeps the indexes transactional
// with the KG. Every entity indexes in exactly the partitions that own one
// of its types, so the N per-commit refreshes together cost one index's.
func (p *Pipeline) EnableBlockIndex() {
	blocker := p.Link.withDefaults().Blocker
	for i := range p.parts {
		ix := NewBlockIndex(blocker)
		if len(p.parts) > 1 {
			part := i
			ix.owns = func(entityType string) bool { return p.partOfType(entityType) == part }
		}
		ix.Build(p.KG.Graph)
		p.parts[i].index = ix
	}
}

// RefreshKGCaches re-derives the pipeline's KG-derived caches — every
// partition's block index and the cached alias resolver — for the given
// entities from the KG's current state. The pipeline keeps them current for
// its own commits; callers that mutate the graph directly (curation hot
// fixes, manual repairs) must report the entities they touched or deleted
// here.
func (p *Pipeline) RefreshKGCaches(ids ...triple.EntityID) {
	for i := range p.parts {
		if ix := p.parts[i].index; ix != nil {
			ix.Refresh(p.KG.Graph, ids...)
		}
	}
	p.resolverMu.Lock()
	cached := p.aliasResolver
	p.resolverMu.Unlock()
	if cached != nil {
		cached.Refresh(p.KG.Graph, ids...)
	}
}

// kgResolver returns the cached incremental alias resolver, building it from
// the graph's current state on first use (the one full scan it performs);
// commits invalidate it from their touched/removed sets afterwards.
func (p *Pipeline) kgResolver() *AliasResolver {
	p.resolverMu.Lock()
	defer p.resolverMu.Unlock()
	if p.aliasResolver == nil {
		p.aliasResolver = NewAliasResolver(p.KG.Graph, p.Ont)
	}
	return p.aliasResolver
}

// BatchError reports a mid-batch commit failure inside Consume,
// ConsumeBarrier, or a Feed batch. Commits are input-ordered and each delta's
// commit is all-or-nothing, so the failure splits the batch exactly: deltas
// [0, Index) are fully applied — the partial-prefix contract — the delta at
// Index failed before writing anything, and nothing at or after Index is
// applied. The KG and its derived caches (block index, alias-resolver cache)
// are byte-identical to consuming just the prefix, and the returned stats
// carry exactly the prefix's entries.
type BatchError struct {
	// Index is the input position of the delta whose commit failed; it is
	// also the number of fully committed deltas (the prefix length).
	Index int
	// Err is the underlying commit error.
	Err error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("construct: batch commit failed at delta %d (deltas [0,%d) remain applied): %v", e.Index, e.Index, e.Err)
}

// Unwrap exposes the underlying commit error.
func (e *BatchError) Unwrap() error { return e.Err }

// SourceStats summarizes one consumed delta.
type SourceStats struct {
	Source      string
	LinkedAdds  int // source entities linked through the full pipeline
	NewEntities int // fresh KG identifiers minted (including OBR stubs)
	Updated     int // entities refreshed via ID lookup
	Deleted     int // source contributions removed
	Volatile    int // entities refreshed via partition overwrite
	Conflicts   int // functional-predicate conflicts resolved
	Comparisons int // matcher invocations after blocking

	// Touched lists the KG entities written by this delta (sorted), and
	// Removed the KG entities deleted outright; the sets are disjoint by
	// construction (an entity both re-added and deleted in one delta ends up
	// in exactly one of them). The Graph Engine publishes exactly these to
	// the operation log.
	Touched []triple.EntityID
	Removed []triple.EntityID

	// Links records the link-table entries this delta settled (source entity
	// ID → canonical KG entity ID) and Unlinks the entries it removed. The
	// link table is construction metadata the entity payloads cannot
	// reproduce, so the publisher rides these deltas on log ops (conflated
	// per source ID like entity state) and recovery replays them.
	Links   map[triple.EntityID]triple.EntityID
	Unlinks []triple.EntityID
}

// addLink records a settled link delta.
func (s *SourceStats) addLink(src, kgID triple.EntityID) {
	if s.Links == nil {
		s.Links = make(map[triple.EntityID]triple.EntityID)
	}
	s.Links[src] = kgID
}

// addUnlink records a removed link delta (superseding any link this delta
// settled for the same source ID).
func (s *SourceStats) addUnlink(src triple.EntityID) {
	delete(s.Links, src)
	s.Unlinks = append(s.Unlinks, src)
}

func (s SourceStats) String() string {
	return fmt.Sprintf("%s: adds=%d new=%d upd=%d del=%d rm=%d vol=%d conflicts=%d cmp=%d",
		s.Source, s.LinkedAdds, s.NewEntities, s.Updated, s.Deleted, len(s.Removed), s.Volatile, s.Conflicts, s.Comparisons)
}

// linkedUpdate pairs an updated source entity with its existing KG link.
type linkedUpdate struct {
	kgID triple.EntityID
	ent  *triple.Entity
}

// deleteLink pairs a deleted source entity with its existing KG link.
type deleteLink struct {
	src  triple.EntityID
	kgID triple.EntityID
}

// preparedDelta carries a delta through the consume phases: snapshotDelta
// fills the link lookups and per-type candidate plans (every KG read),
// computeDelta solves the plans into resolutions (pure compute), and
// commitDelta applies the result. Snapshots of a batch all run before its
// first commit; computations overlap commits freely.
type preparedDelta struct {
	delta       ingest.Delta
	updates     []linkedUpdate
	deleteLinks []deleteLink
	addGroups   map[string][]*triple.Entity
	addTypes    []string
	plans       []typeLinkPlan   // one per addTypes entry, same order
	resolutions []typeResolution // one per addTypes entry, same order
}

// validateDelta checks the pipeline wiring and the delta payload (nil
// entities, empty IDs) before any state changes. Consume validates every
// delta of a batch before the first commit, so a batch containing a bad
// delta leaves the KG untouched instead of half-applied.
func (p *Pipeline) validateDelta(d ingest.Delta) error {
	if p.KG == nil || p.Ont == nil {
		return fmt.Errorf("construct: pipeline missing KG or ontology")
	}
	check := func(kind string, ents []*triple.Entity) error {
		for i, e := range ents {
			if e == nil {
				return fmt.Errorf("construct: delta %q: nil entity at %s[%d]", d.Source, kind, i)
			}
			if e.ID == "" {
				return fmt.Errorf("construct: delta %q: empty entity ID at %s[%d]", d.Source, kind, i)
			}
		}
		return nil
	}
	if err := check("Added", d.Added); err != nil {
		return err
	}
	if err := check("Updated", d.Updated); err != nil {
		return err
	}
	if err := check("Volatile", d.Volatile); err != nil {
		return err
	}
	for i, id := range d.Deleted {
		if id == "" {
			return fmt.Errorf("construct: delta %q: empty entity ID at Deleted[%d]", d.Source, i)
		}
	}
	return nil
}

// snapshotDelta performs every KG read consuming the delta needs — update and
// delete link lookups plus the per-type candidate gather (block-index probe
// and candidate load, or KG-view materialization) — against the KG's current
// state, each type group probing its owner partition's block index. With the
// block index enabled this is O(|delta|). The returned
// preparedDelta is self-contained: computeDelta never touches the KG, which
// is what lets commits of earlier deltas overlap it. b is the consume call's
// shared helper-goroutine budget.
func (p *Pipeline) snapshotDelta(d ingest.Delta, b *WorkerBudget) *preparedDelta {
	pd := &preparedDelta{delta: d}

	// Updated entities that lost their link (for example after an on-demand
	// deletion) re-enter through the full linking path.
	adds := append([]*triple.Entity(nil), d.Added...)
	for _, e := range d.Updated {
		if kgID, ok := p.KG.Lookup(e.ID); ok {
			pd.updates = append(pd.updates, linkedUpdate{kgID: kgID, ent: e})
		} else {
			adds = append(adds, e)
		}
	}
	seenDel := make(map[triple.EntityID]bool, len(d.Deleted))
	for _, src := range d.Deleted {
		if seenDel[src] {
			continue
		}
		seenDel[src] = true
		if kgID, ok := p.KG.Lookup(src); ok {
			pd.deleteLinks = append(pd.deleteLinks, deleteLink{src: src, kgID: kgID})
		}
	}

	pd.addGroups, pd.addTypes = GroupByType(adds)
	pd.plans = make([]typeLinkPlan, len(pd.addTypes))
	params := p.Link.withDefaults()
	runIndexedBudget(b, p.workers(), len(pd.addTypes), func(i int) {
		typ := pd.addTypes[i]
		if ix := p.parts[p.partOfType(typ)].index; ix != nil {
			pd.plans[i] = gatherTypeGroupIndexed(pd.addGroups[typ], p.KG, ix, typ, params)
		} else {
			pd.plans[i] = gatherTypeGroup(pd.addGroups[typ], p.KG.KGViewShared(typ), typ)
		}
	})
	return pd
}

// computeDelta runs the pure-compute half of the pipeline over a snapshotted
// delta: per-type blocking (scan path), pair scoring, and component
// clustering on the worker pool. It reads no KG state, so it may overlap any
// commit; both paths produce identical resolutions for every cluster
// containing source entities.
func (p *Pipeline) computeDelta(pd *preparedDelta, b *WorkerBudget) {
	params := p.Link
	if params.Workers == 0 {
		params.Workers = p.workers()
	}
	params.budget = b
	pd.resolutions = make([]typeResolution, len(pd.addTypes))
	runIndexedBudget(b, p.workers(), len(pd.addTypes), func(i int) {
		pd.resolutions[i] = pd.plans[i].solve(params)
	})
}

// prepareDelta runs the read-only half of the pipeline: validation, the KG
// snapshot, and per-type blocking/matching/clustering on the worker pool.
func (p *Pipeline) prepareDelta(d ingest.Delta, b *WorkerBudget) (*preparedDelta, error) {
	if err := p.validateDelta(d); err != nil {
		return nil, err
	}
	pd := p.snapshotDelta(d, b)
	p.computeDelta(pd, b)
	return pd, nil
}

// newBudget creates the shared helper-goroutine budget one top-level consume
// call threads through all of its nested pools (delta preparation × type
// groups × candidate-graph components × object resolution): the caller is
// one worker, so the budget holds workers−1 helper tokens. Sharing one
// budget closes the goroutine multiplication the independent pool sizing had
// on large batches; scheduling changes, output never does.
func (p *Pipeline) newBudget() *WorkerBudget {
	return NewWorkerBudget(effectiveWorkers(p.workers()) - 1)
}

// fuseGroup is one batched-fusion unit: every fusion op of a commit that
// lands on one target KG entity, in the per-entity order (same-as carriers,
// then adds, then updates).
type fuseGroup struct {
	id  triple.EntityID
	ops []FuseOp
	// part is the owning partition of the type context that first created
	// the group. Distinct groups target distinct entities, so
	// partition-parallel group application writes disjoint entity records.
	part int
}

// commitDelta applies a prepared delta to the KG under the commit lock: KG
// identifiers are minted in canonical type-then-cluster order, object
// resolution runs (parallel over entities, with stub minting deferred to a
// sequential canonical pass), and payloads fuse — grouped by target KG
// entity, one batched fuse per target, partitions in parallel. Because every
// write happens here, in an order fixed by the input alone, parallel and
// sequential runs produce byte-identical KGs.
//
// With N ≥ 2 partitions two steps change, neither of which changes final
// bytes: after link assignment (which fixes this commit's stable write
// targets) any deferred volatile ops on those targets flush first
// (flush-on-conflict), and the trailing volatile stage enqueues to the owner
// partition's backlog instead of writing the graph. Deferred targets still
// count as Touched (they carry unpublished state), but only entities the
// commit actually wrote refresh the KG-derived caches.
func (p *Pipeline) commitDelta(pd *preparedDelta, b *WorkerBudget) (SourceStats, error) {
	d := pd.delta
	stats := SourceStats{Source: d.Source}
	fuser := p.Fuser
	if fuser == nil {
		fuser = &Fuser{Ont: p.Ont}
	}

	p.commitMu.Lock()
	defer p.commitMu.Unlock()

	if p.commitHook != nil {
		if err := p.commitHook(d.Source); err != nil {
			return stats, err
		}
	}

	resolver := p.Resolver
	if resolver == nil {
		// The cached incremental resolver replaces the former per-commit
		// rebuild from a full Graph.Snapshot (O(|KG|) every commit); it is
		// invalidated below from exactly this commit's touched/removed sets.
		resolver = p.kgResolver()
	}

	// Record links and collect the batch-wide assignment before OBR so that
	// intra-batch references resolve; minting happens inside assign, in
	// sorted type order.
	assignment := make(map[triple.EntityID]triple.EntityID)
	outcomes := make([]LinkOutcome, len(pd.resolutions))
	for i, tr := range pd.resolutions {
		outcome := tr.assign(p.KG.Graph.NewID)
		outcomes[i] = outcome
		for src, kgID := range outcome.Assignment {
			assignment[src] = kgID
			p.KG.Link(src, kgID)
			stats.addLink(src, kgID)
		}
		stats.LinkedAdds += len(tr.src)
		stats.NewEntities += outcome.NewEntities
		stats.Comparisons += outcome.Blocking.Comparisons
	}
	for _, u := range pd.updates {
		assignment[u.ent.ID] = u.kgID
	}

	// Flush-on-conflict: this commit's stable writes land on the assignment
	// and delete targets; any of them carrying deferred volatile ops replays
	// those first.
	if p.PendingVolatile() > 0 {
		targets := make([]triple.EntityID, 0, len(assignment)+len(pd.deleteLinks))
		for _, kgID := range assignment {
			targets = append(targets, kgID)
		}
		for _, dl := range pd.deleteLinks {
			targets = append(targets, dl.kgID)
		}
		p.flushTargets(targets, b)
	}

	// Object resolution over adds and updates, parallel per entity; dangling
	// references come back as deferred stub requests.
	entities := make([]*triple.Entity, 0, len(assignment))
	for _, typ := range pd.addTypes {
		entities = append(entities, pd.addGroups[typ]...)
	}
	for _, u := range pd.updates {
		entities = append(entities, u.ent)
	}
	pending := make([][]stubRef, len(entities))
	runIndexedBudget(b, p.workers(), len(entities), func(i int) {
		pending[i] = resolveObjects(entities[i], assignment, p.KG, resolver, p.Ont)
	})
	// Mint one stub per distinct dangling target, in canonical entity order,
	// then apply the deferred rewrites. (Deduplicating across entities also
	// means two payload entities dangling on the same target now share one
	// stub instead of racing to create two.)
	stubs := make(map[triple.EntityID]triple.EntityID)
	var stubIDs []triple.EntityID
	for _, refs := range pending {
		for _, ref := range refs {
			if _, ok := stubs[ref.target]; ok {
				continue
			}
			id := p.KG.Graph.NewID()
			stub := triple.NewEntity(id)
			stub.Add(triple.New(id, triple.PredType, triple.String(orDefault(ref.typ, "entity"))).WithSource(d.Source, 0.5))
			stub.Add(triple.New(id, triple.PredName, triple.String(ref.mention)).WithSource(d.Source, 0.5))
			p.KG.Graph.Put(stub)
			p.KG.Link(ref.target, id)
			stats.addLink(ref.target, id)
			stubs[ref.target] = id
			stubIDs = append(stubIDs, id)
		}
	}
	for i, refs := range pending {
		if len(refs) == 0 {
			continue
		}
		rw := make(map[triple.EntityID]triple.EntityID, len(refs))
		for _, ref := range refs {
			rw[ref.target] = stubs[ref.target]
		}
		entities[i].Rewrite(entities[i].ID, rw)
	}

	// Fusion: payloads merge into the graph grouped by target KG entity, one
	// batched fuse — a single Graph.Update round-trip and one
	// conflict-resolution pass — per target, targets in canonical
	// first-fusion order. Within a target the ops keep the per-entity order:
	// same_as carriers (SameAs is sorted, so consecutive runs share a subject
	// and carriers fuse in subject order), then adds, then updates (each
	// update stripping the source's stale stable facts before its payload
	// merges).
	groupIdx := make(map[triple.EntityID]int)
	var groups []fuseGroup
	addOp := func(id triple.EntityID, op FuseOp, part int) {
		gi, ok := groupIdx[id]
		if !ok {
			gi = len(groups)
			groupIdx[id] = gi
			groups = append(groups, fuseGroup{id: id, part: part})
		}
		groups[gi].ops = append(groups[gi].ops, op)
	}
	for i, outcome := range outcomes {
		part := p.partOfType(pd.addTypes[i])
		for lo := 0; lo < len(outcome.SameAs); {
			hi := lo + 1
			for hi < len(outcome.SameAs) && outcome.SameAs[hi].Subject == outcome.SameAs[lo].Subject {
				hi++
			}
			carrier := triple.NewEntity(outcome.SameAs[lo].Subject)
			carrier.Add(outcome.SameAs[lo:hi]...)
			addOp(carrier.ID, FuseOp{Incoming: carrier}, part)
			lo = hi
		}
	}
	for _, typ := range pd.addTypes {
		part := p.partOfType(typ)
		for _, e := range pd.addGroups[typ] {
			kgID, ok := assignment[e.ID]
			if !ok {
				continue
			}
			linked := e.Clone()
			linked.Rewrite(kgID, nil)
			addOp(kgID, FuseOp{Incoming: linked}, part)
		}
	}
	for _, u := range pd.updates {
		// Replace this source's stable contribution: strip, then re-fuse.
		linked := u.ent.Clone()
		linked.Rewrite(u.kgID, nil)
		addOp(u.kgID, FuseOp{StripSource: d.Source, Incoming: linked}, p.partOfEntity(u.ent))
		stats.Updated++
	}
	// Partition-parallel group application: distinct groups write distinct
	// entities, so partitions touch disjoint records; within a partition
	// groups apply in canonical creation order, and per-group conflicts
	// reassemble in group order, so the curation stream is ordered as on a
	// single partition.
	perPart := make([][]int, len(p.parts))
	for gi, g := range groups {
		perPart[g.part] = append(perPart[g.part], gi)
	}
	groupConflicts := make([][]Conflict, len(groups))
	runIndexedBudget(b, p.workers(), len(p.parts), func(pi int) {
		for _, gi := range perPart[pi] {
			g := groups[gi]
			if !p.PerEntityFusion {
				groupConflicts[gi] = fuser.FuseBatch(p.KG.Graph, g.id, g.ops)
				continue
			}
			// Reference path: one graph round-trip and one conflict pass per
			// payload entity.
			for _, op := range g.ops {
				if op.StripSource != "" {
					removeSourceStable(p.KG.Graph, g.id, op.StripSource, p.Ont)
				}
				if op.Incoming != nil {
					groupConflicts[gi] = append(groupConflicts[gi], fuser.FuseEntity(p.KG.Graph, op.Incoming)...)
				}
			}
		}
	})
	var conflicts []Conflict
	p.fusionMu.Lock()
	p.fusion.Commits++
	p.fusion.Targets += len(groups)
	for pi, gis := range perPart {
		if len(gis) > 0 {
			p.parts[pi].fusion.Commits++
			p.parts[pi].fusion.Targets += len(gis)
		}
		for _, gi := range gis {
			p.fusion.Payloads += len(groups[gi].ops)
			p.parts[pi].fusion.Payloads += len(groups[gi].ops)
		}
	}
	p.fusionMu.Unlock()
	for _, gc := range groupConflicts {
		conflicts = append(conflicts, gc...)
	}

	touched := make(map[triple.EntityID]bool)
	for _, kgID := range assignment {
		touched[kgID] = true
	}
	for _, id := range stubIDs {
		touched[id] = true
	}
	for _, dl := range pd.deleteLinks {
		if RemoveSource(p.KG.Graph, dl.kgID, d.Source) {
			stats.Removed = append(stats.Removed, dl.kgID)
			delete(touched, dl.kgID)
		} else {
			touched[dl.kgID] = true
		}
		p.KG.Unlink(dl.src)
		stats.addUnlink(dl.src)
		stats.Deleted++
	}
	// Volatile partition overwrite runs after the stable payloads fused: in
	// place on a single partition, deferred to the owner's backlog on several
	// (written then snapshots the ids this commit actually wrote).
	deferVolatile := len(p.parts) > 1
	var written []triple.EntityID
	if deferVolatile {
		written = sortedIDs(touched)
	}
	removed := make(map[triple.EntityID]bool, len(stats.Removed))
	for _, id := range stats.Removed {
		removed[id] = true
	}
	for _, v := range d.Volatile {
		kgID, ok := assignment[v.ID]
		if !ok {
			if kgID, ok = p.KG.Lookup(v.ID); !ok {
				continue // entity not (yet) part of the KG
			}
		}
		if removed[kgID] {
			// This commit deleted the entity outright; applying the same
			// delta's volatile partition would resurrect it as a ghost with
			// no stable facts and put its id in both Touched and Removed.
			continue
		}
		if deferVolatile {
			p.enqueueVolatile(kgID, d.Source, v)
		} else {
			ApplyVolatileOverwrite(p.KG.Graph, kgID, d.Source, v, p.Ont)
		}
		touched[kgID] = true
		stats.Volatile++
	}
	stats.Touched = sortedIDs(touched)
	sort.Slice(stats.Removed, func(i, j int) bool { return stats.Removed[i] < stats.Removed[j] })
	if !deferVolatile {
		written = stats.Touched
	}
	stats.Conflicts = len(conflicts)
	if len(conflicts) > 0 {
		p.conflictsMu.Lock()
		p.conflicts = append(p.conflicts, conflicts...)
		p.conflictsMu.Unlock()
	}
	// Transactional cache maintenance: still under the commit lock, re-index
	// exactly the entities this commit wrote and drop the ones it removed —
	// one refresh per target KG id — in the block indexes and the cached
	// alias resolver. The next prepare — whether of the next delta in this
	// batch or a later batch — reads caches that match the graph it links
	// against.
	p.RefreshKGCaches(written...)
	p.RefreshKGCaches(stats.Removed...)
	return stats, nil
}

// sortedIDs returns a set's members in canonical order.
func sortedIDs(set map[triple.EntityID]bool) []triple.EntityID {
	var out []triple.EntityID
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConsumeDelta runs one source's payload through the construction pipeline:
// ToAdd links fully (blocking, matching, resolution); ToUpdate and ToDelete
// look up their existing links; volatile payloads overwrite their partition
// after everything else fuses. Preparation (blocking, matching, clustering)
// runs on the pipeline's worker pool; the commit phase serializes under the
// commit lock.
func (p *Pipeline) ConsumeDelta(d ingest.Delta) (SourceStats, error) {
	b := p.newBudget()
	pd, err := p.prepareDelta(d, b)
	if err != nil {
		return SourceStats{Source: d.Source}, err
	}
	return p.commitDelta(pd, b)
}

// batchRun carries a validated, snapshotted batch whose pure compute phase is
// running on the worker pool: the reusable middle stage between beginBatch
// and commitBatch that Consume and the standing Feed share.
type batchRun struct {
	pds      []*preparedDelta
	computed []chan struct{} // computed[i] closes when delta i's compute is done
	budget   *WorkerBudget
}

// wait blocks until every compute of the batch has settled. The commit path
// calls it on errors so no compute goroutine outlives its batch.
func (br *batchRun) wait() {
	for _, ch := range br.computed {
		<-ch
	}
}

// beginBatch runs a validated batch's read stages: it snapshots each delta's
// KG reads against the graph's current state on the worker pool and launches
// the pure compute phase (blocking on the scan path, pair scoring, component
// clustering) in the background. Callers must have validated the batch (so a
// bad delta aborts before any commit, leaving the KG untouched). The
// returned batchRun is ready for commitBatch; its computes overlap any
// commits the caller interleaves.
func (p *Pipeline) beginBatch(deltas []ingest.Delta) *batchRun {
	b := p.newBudget()
	pds := p.snapshotBatch(deltas, b)
	br := &batchRun{pds: pds, budget: b, computed: make([]chan struct{}, len(pds))}
	for i := range br.computed {
		br.computed[i] = make(chan struct{})
	}
	//saga:longlived single overlap goroutine per batch; its inner workers are budgeted
	go runIndexedBudget(b, p.workers(), len(pds), func(i int) {
		p.computeDelta(pds[i], b)
		close(br.computed[i])
	})
	return br
}

// commitBatch commits a begun batch's deltas in input order, filling stats[i]
// as each commit lands; commit i starts as soon as delta i's compute and
// commit i−1 are both done. On a commit error it first waits for the batch's
// remaining in-flight computes to settle — no compute goroutine outlives the
// batch — and returns a *BatchError carrying the partial-prefix contract:
// deltas [0, Index) stay fully applied with their stats filled, nothing at or
// after Index is applied.
func (p *Pipeline) commitBatch(br *batchRun, stats []SourceStats) error {
	for i := range br.pds {
		<-br.computed[i]
		s, err := p.commitDelta(br.pds[i], br.budget)
		if err != nil {
			br.wait()
			return &BatchError{Index: i, Err: err}
		}
		stats[i] = s
	}
	return nil
}

// Consume processes multiple source deltas with a pipelined commit phase.
// Every delta is validated, then every delta's KG reads are snapshotted
// against the batch-start state, and then commit i — minting, object
// resolution, fusion — starts as soon as delta i's compute and commit i−1
// are both done, overlapping the commit of earlier deltas with the
// compute-heavy linking of later ones. Commit order is fixed by the input,
// never by goroutine scheduling, so a Consume over independent deltas
// produces exactly the KG of ConsumeSequential over the same slice. (Each
// delta of a batch links against the KG state at batch start; deltas of one
// batch never link against each other's output.) A validation error commits
// nothing. Results are ordered as the input.
//
// A mid-batch commit error follows the partial-prefix contract: the returned
// error is a *BatchError, deltas before its Index remain fully applied with
// their stats entries filled (later entries are zero), the KG-derived caches
// match the applied prefix, and every in-flight compute has settled before
// Consume returns.
func (p *Pipeline) Consume(deltas []ingest.Delta) ([]SourceStats, error) {
	if err := p.validateBatch(deltas); err != nil {
		return make([]SourceStats, len(deltas)), err
	}
	return p.consumeValidated(deltas)
}

// consumeValidated is Consume without the validation pass; the standing Feed
// enters here because Submit already validated the batch. Single-delta
// batches and single-worker pipelines take the barrier schedule — with
// nothing to overlap it is the same computation without the cross-goroutine
// handoff.
func (p *Pipeline) consumeValidated(deltas []ingest.Delta) ([]SourceStats, error) {
	stats := make([]SourceStats, len(deltas))
	if len(deltas) <= 1 || p.workers() <= 1 {
		return stats, p.commitBarrier(deltas, stats)
	}
	return stats, p.commitBatch(p.beginBatch(deltas), stats)
}

// ConsumeBarrier is the pre-pipelining Consume: every delta's compute
// finishes before the first commit starts. It produces exactly Consume's KG
// and stats (including the *BatchError partial-prefix contract on commit
// errors) and exists as the ablation comparator for the commit-pipeline
// overlap.
func (p *Pipeline) ConsumeBarrier(deltas []ingest.Delta) ([]SourceStats, error) {
	stats := make([]SourceStats, len(deltas))
	if err := p.validateBatch(deltas); err != nil {
		return stats, err
	}
	return stats, p.commitBarrier(deltas, stats)
}

// commitBarrier runs a validated batch on the barrier schedule: snapshot
// all, compute all, then commit in input order, filling stats[i] per commit
// (prefix-only on a *BatchError).
func (p *Pipeline) commitBarrier(deltas []ingest.Delta, stats []SourceStats) error {
	b := p.newBudget()
	pds := p.snapshotBatch(deltas, b)
	runIndexedBudget(b, p.workers(), len(pds), func(i int) {
		p.computeDelta(pds[i], b)
	})
	for i := range pds {
		s, err := p.commitDelta(pds[i], b)
		if err != nil {
			return &BatchError{Index: i, Err: err}
		}
		stats[i] = s
	}
	return nil
}

// validateBatch checks every delta of a batch before any state changes, so
// a batch containing a bad delta commits nothing.
func (p *Pipeline) validateBatch(deltas []ingest.Delta) error {
	for i := range deltas {
		if err := p.validateDelta(deltas[i]); err != nil {
			return err
		}
	}
	return nil
}

// snapshotBatch snapshots each delta's KG reads against the batch-start
// state on the worker pool. The batch must already be validated.
func (p *Pipeline) snapshotBatch(deltas []ingest.Delta, b *WorkerBudget) []*preparedDelta {
	pds := make([]*preparedDelta, len(deltas))
	runIndexedBudget(b, p.workers(), len(deltas), func(i int) {
		pds[i] = p.snapshotDelta(deltas[i], b)
	})
	return pds
}

// ConsumeSequential processes deltas one at a time; the ablation comparator
// for Consume's inter-source parallelism. Unlike Consume, each delta links
// against the previous delta's output, so the two agree exactly (and with
// ConsumeBarrier) on batches of independent deltas.
func (p *Pipeline) ConsumeSequential(deltas []ingest.Delta) ([]SourceStats, error) {
	out := make([]SourceStats, 0, len(deltas))
	for _, d := range deltas {
		s, err := p.ConsumeDelta(d)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// DrainConflicts returns and clears the accumulated fusion conflicts; the
// curation pipeline consumes them (§4.3).
func (p *Pipeline) DrainConflicts() []Conflict {
	p.conflictsMu.Lock()
	defer p.conflictsMu.Unlock()
	out := p.conflicts
	p.conflicts = nil
	return out
}

// removeSourceStable drops the source's non-volatile facts from the entity,
// keeping its volatile partition intact (updates never touch volatile data —
// that is the overwrite path's job).
func removeSourceStable(g *triple.Graph, id triple.EntityID, source string, ont *ontology.Ontology) {
	g.Update(id, func(e *triple.Entity) {
		stripSourceStable(e, source, ont)
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
