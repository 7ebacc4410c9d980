// Package core wires Saga's subsystems into the end-to-end platform of
// Figure 1: source ingestion feeds the batch construction pipeline, the
// construction pipeline is the sole producer into the Graph Engine's
// operation log, orchestration agents derive every store's view of the KG,
// views materialize on checkpoints, the live graph serves a view of the
// stable KG unioned with streaming sources, and the ML services (NERD,
// embeddings, importance) are built over the same engine.
package core

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"saga/internal/construct"
	"saga/internal/graphengine"
	"saga/internal/importance"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/live/kgq"
	"saga/internal/nerd"
	"saga/internal/ontology"
	"saga/internal/oplog"
	"saga/internal/storage"
	"saga/internal/storage/disk"
	"saga/internal/store/entitystore"
	"saga/internal/store/textindex"
	"saga/internal/triple"
	"saga/internal/views"
)

// StorageOptions selects the storage backend for the platform's serving
// stores (entity KV, text postings, record log, staging blobs).
type StorageOptions struct {
	// Backend names the storage backend ("memory", "disk", or any backend
	// registered with the storage package); empty means memory. The memory
	// backend keeps volatile stores; durability for the log, staging store,
	// and checkpoints can still be layered on via DurabilityOptions.Dir.
	Backend string
	// DataDir roots a durable backend's files. Required for non-memory
	// backends; ignored by memory.
	DataDir string
}

// ConstructionOptions tunes the KG construction pipeline.
type ConstructionOptions struct {
	// LinkParams tunes the construction linking stage.
	LinkParams construct.LinkParams
	// Workers bounds the construction pipeline's intra-delta parallelism
	// (pair scoring, component clustering, object resolution). 0 means
	// GOMAXPROCS; 1 forces the sequential reference path. The constructed KG
	// is identical for every value — workers only change wall-clock time.
	// Linking always runs on the incremental block index, and fusion is
	// always batched per target KG entity.
	Workers int
	// Partitions shards construction across N concurrently fusing pipeline
	// partitions over one shared KG (entity types hash to an owner
	// partition; with N ≥ 2 cross-partition volatile traffic exchanges at
	// batch boundaries — see docs/INVARIANTS.md#cross-partition-linking).
	// 0 means 1; every value constructs a byte-identical KG.
	Partitions int
	// ExchangeInterval is the number of standing-feed batches between
	// cross-partition exchanges (backlog flush + deferred publish) when
	// Partitions ≥ 2; 0 means DefaultExchangeInterval. Entities with
	// deferred volatile state publish at the next exchange (and always at
	// drain, checkpoint, and Close; ConsumeDeltas without an open feed
	// exchanges after its batch), so the interval bounds serving staleness,
	// never final state.
	ExchangeInterval int
}

// DurabilityOptions configures crash recovery: where durable log/checkpoint
// state lives when the store backend itself is volatile, and the cadence of
// checkpoints and log compaction.
type DurabilityOptions struct {
	// Dir, with the memory backend, roots a durable operation log (segmented,
	// under Dir/oplog), staging store (Dir/staging), and checkpoint files
	// (Dir/checkpoints) while the serving stores stay volatile — the hybrid
	// deployment where only replayable state survives a restart. Durable
	// backends keep all of these under Storage.DataDir and ignore Dir.
	Dir string
	// CheckpointEvery takes a durable checkpoint every N published feed
	// batches, on the feed's ordered publisher (so a checkpoint is one more
	// publish unit and never stalls the commit loop). 0 disables periodic
	// checkpoints; explicit Checkpoint calls still work.
	CheckpointEvery int
	// CompactAfter triggers background log compaction once the prefix at or
	// below the compaction floor (the penultimate checkpoint watermark)
	// holds at least this many ops. 0 disables automatic compaction;
	// explicit Compact calls still work.
	CompactAfter int
}

// ServingOptions configures the live serving tier.
type ServingOptions struct {
	// LiveReplicas sets the live serving replica count (§4): writes
	// replicate to every replica, reads route across them with health,
	// version, and load awareness. 0 or 1 means a single replica.
	LiveReplicas int
}

// Options configures a platform, grouped by subsystem.
type Options struct {
	// Ontology defaults to ontology.Default().
	Ontology *ontology.Ontology
	// Storage selects the store backend.
	Storage StorageOptions
	// Construction tunes the construction pipeline.
	Construction ConstructionOptions
	// Feed sets the default queue depths for feeds opened with Platform.Feed
	// (per-call FeedOptions override them).
	Feed FeedOptions
	// Durability configures crash recovery, checkpoints, and log compaction.
	Durability DurabilityOptions
	// Serving configures the live serving tier.
	Serving ServingOptions
}

// DefaultExchangeInterval is the default partitioned-mode exchange cadence,
// in feed batches.
const DefaultExchangeInterval = 8

// withDefaults resolves zero values to their documented defaults.
func (o Options) withDefaults() Options {
	if o.Ontology == nil {
		o.Ontology = ontology.Default()
	}
	if o.Construction.ExchangeInterval <= 0 {
		o.Construction.ExchangeInterval = DefaultExchangeInterval
	}
	if o.Feed.Queue <= 0 {
		o.Feed.Queue = construct.DefaultFeedQueue
	}
	if o.Feed.PublishQueue <= 0 {
		o.Feed.PublishQueue = construct.DefaultFeedPublishQueue
	}
	return o
}

// Platform is the assembled knowledge platform.
type Platform struct {
	Ont *ontology.Ontology
	KG  *construct.KG
	// Pipeline is the construction pipeline (Construction.Partitions
	// partitions over KG).
	Pipeline *construct.Pipeline

	Engine       *graphengine.Engine
	EntityStore  *entitystore.Store
	TextIndex    *textindex.Index
	GraphReplica *triple.Graph

	ViewCatalog *views.Catalog
	ViewManager *views.Manager

	// Live is the primary serving replica (Replicas.Replica(0)); direct
	// reads against it are always valid. Writes go through Replicas so
	// every replica stays in sync.
	Live *live.Store
	// Replicas is the live serving replica set; serving tiers route reads
	// across it (live.ReplicaSet.RouteAcquire).
	Replicas        *live.ReplicaSet
	LiveConstructor *live.Constructor
	LiveEngine      *kgq.Engine
	Intents         *live.IntentHandler
	Curation        *live.Queue

	// NERD is built on demand by BuildNERD.
	NERD *nerd.NERD

	// Checkpoints is the durable checkpoint store; nil when the platform has
	// no durable checkpoint target (volatile backend without Durability.Dir).
	Checkpoints storage.Checkpointer

	snapshots map[string]ingest.Snapshot

	// feedMu guards the feed slot; at most one feed is open at a time so the
	// pipeline's write path and the engine stay single-producer. feedOwned
	// marks a feed a platform call opened for itself (see acquireFeed).
	feedMu    sync.Mutex
	feed      *construct.Feed
	feedOwned bool

	// pendingMu guards publishes that failed against the engine; they are
	// retried — re-synced against the KG's current state — at the next
	// publish point so a transient Engine.Publish error cannot leave the
	// serving stores permanently diverged from the KG.
	pendingMu sync.Mutex
	pending   []pendingPublish

	// publishHook, when set (tests only), runs before every engine publish
	// and can inject failures to exercise the retry path.
	publishHook func(source string) error

	// exchangeEvery is the standing feed's exchange cadence, in batches.
	exchangeEvery int

	// feedDefaults are the Options.Feed queue depths, applied when a Feed
	// call leaves its own FeedOptions zero.
	feedDefaults FeedOptions

	// linkReplica is the log-derived link table: a FuncAgent replays every
	// op's Links/Unlinks into it, so after a CatchUp it is exactly the link
	// state at the agents' LSN — the consistent capture checkpoints embed.
	linkMu      sync.Mutex
	linkReplica map[triple.EntityID]triple.EntityID

	// Durability state (guarded by durMu). prevCkptLSN is the penultimate
	// durable checkpoint watermark — the compaction floor: the log prefix at
	// or below it may be rewritten, because every retained checkpoint is at
	// least that fresh and recovery never replays below its checkpoint.
	durMu        sync.Mutex
	durStats     DurabilityStats
	prevCkptLSN  uint64
	ckptEvery    int
	compactAfter int
	ckptBatches  int // committed feed batches since the last periodic checkpoint

	// Background compactor. compactRunMu serializes compaction runs (the
	// goroutine and explicit Compact calls); compactMu guards the trigger
	// channel against send-on-closed during shutdown.
	compactRunMu   sync.Mutex
	compactMu      sync.Mutex
	compactTrig    chan uint64
	compactStopped bool
	compactDone    chan struct{}
}

// pendingPublish records a failed publish: the source, the KG entities whose
// store state may be stale, and the link-table keys whose log record was
// lost. A retry publishes the entities' *current* KG state (upsert if
// present, delete if gone) and re-resolves each link key through KG.Lookup,
// which is convergent no matter how many later commits touched them in
// between.
type pendingPublish struct {
	source   string
	ids      []triple.EntityID
	linkSrcs []triple.EntityID
}

// Open assembles a platform and recovers its state: with durable storage it
// restores the construction KG and every serving store from the latest
// checkpoint and replays only the operation-log suffix past the checkpoint's
// watermark (agent-parallel), so cold-start time tracks the suffix length,
// not the log's age. A platform with no durable state opens empty. Close the
// platform when done; recovery is Open's job alone — nothing else replays
// the log implicitly.
func Open(opts Options) (*Platform, error) {
	opts = opts.withDefaults()
	var (
		log     *oplog.Log
		staging graphengine.ObjectStore
		estore  *entitystore.Store
		tindex  *textindex.Index
		ckpts   storage.Checkpointer
		err     error
	)
	if opts.Storage.Backend == "" || opts.Storage.Backend == storage.DefaultBackend {
		// The hybrid configuration: volatile in-memory stores, with the
		// oplog, staging store, and checkpoints made durable under
		// Durability.Dir when set. The stores rebuild from checkpoint + log
		// suffix at Open.
		if dir := opts.Durability.Dir; dir != "" {
			rec, err := disk.OpenRecordLog(filepath.Join(dir, "oplog"), 0)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			log, err = oplog.OpenStore(rec)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			staging, err = graphengine.NewDirObjectStore(filepath.Join(dir, "staging"))
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			ckpts, err = disk.OpenCheckpoints(filepath.Join(dir, "checkpoints"))
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		} else {
			log = oplog.NewVolatile()
			staging = graphengine.NewObjectStore()
		}
		estore = entitystore.New()
		tindex = textindex.New()
	} else {
		if opts.Storage.DataDir == "" {
			return nil, fmt.Errorf("core: backend %q needs Storage.DataDir", opts.Storage.Backend)
		}
		h, err := storage.Resolve(opts.Storage.Backend, storage.Options{Dir: opts.Storage.DataDir, Partitions: opts.Construction.Partitions})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		rec, err := h.RecordLog()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		log, err = oplog.OpenStore(rec)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		staging, err = h.BlobStore()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		kv, err := h.EntityKV()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		estore = entitystore.NewWith(kv)
		postings, err := h.Postings()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		tindex = textindex.NewWith(postings)
		ckpts, err = h.Checkpoints()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	p := &Platform{
		Ont:          opts.Ontology,
		KG:           construct.NewKG(),
		Engine:       graphengine.NewWithStaging(log, staging),
		EntityStore:  estore,
		TextIndex:    tindex,
		GraphReplica: triple.NewGraph(),
		ViewCatalog:  views.NewCatalog(),
		Curation:     live.NewQueue(),
		Checkpoints:  ckpts,
		snapshots:    make(map[string]ingest.Snapshot),
	}
	p.linkReplica = make(map[triple.EntityID]triple.EntityID)
	p.Engine.RegisterAgent(graphengine.EntityStoreAgent{Store: p.EntityStore})
	p.Engine.RegisterAgent(graphengine.TextIndexAgent{Index: p.TextIndex})
	p.Engine.RegisterAgent(graphengine.GraphAgent{Graph: p.GraphReplica})
	p.Engine.RegisterAgent(graphengine.FuncAgent{AgentName: "link-table", Fn: p.applyLinkOp})

	// Recover before building the pipelines: the block index eagerly indexes
	// the KG at pipeline construction, so the KG must hold its restored state
	// first.
	if err = p.recover(); err != nil {
		return nil, err
	}

	p.Pipeline = construct.NewPipeline(p.KG, opts.Ontology, opts.Construction.Partitions)
	p.Pipeline.Link = opts.Construction.LinkParams
	p.Pipeline.Workers = opts.Construction.Workers
	p.Pipeline.EnableBlockIndex()
	p.exchangeEvery = opts.Construction.ExchangeInterval
	p.feedDefaults = opts.Feed
	p.ckptEvery = opts.Durability.CheckpointEvery
	p.compactAfter = opts.Durability.CompactAfter
	p.ViewManager = views.NewManager(p.ViewCatalog)
	replicas := opts.Serving.LiveReplicas
	if replicas < 1 {
		replicas = 1
	}
	p.Replicas = live.NewReplicaSet(replicas)
	p.Live = p.Replicas.Replica(0)
	p.LiveConstructor = &live.Constructor{Store: p.Replicas}
	p.LiveEngine = kgq.NewEngine(p.Live)
	p.Intents = live.NewIntentHandler(p.Live, nil)

	p.compactTrig = make(chan uint64, 1)
	p.compactDone = make(chan struct{})
	go p.compactorLoop() //saga:longlived stopped by Close before the stores shut
	return p, nil
}

// IngestSource runs a source's ingestion pipeline over a published data
// version (import → transform → align → delta) and consumes the delta into
// the KG. The per-source snapshot is kept so the next run diffs against it.
func (p *Platform) IngestSource(src *ingest.Source, data io.Reader) (construct.SourceStats, error) {
	res, err := src.Run(data, p.snapshots[src.Name], p.Ont)
	if err != nil {
		return construct.SourceStats{}, err
	}
	p.snapshots[src.Name] = res.Snapshot
	return p.ConsumeDelta(res.Delta)
}

// ConsumeDelta runs one delta through construction and publishes the touched
// entities to the Graph Engine; it is ConsumeDeltas over a one-delta batch.
func (p *Platform) ConsumeDelta(d ingest.Delta) (construct.SourceStats, error) {
	all, err := p.ConsumeDeltas([]ingest.Delta{d})
	st := all[0]
	st.Source = d.Source
	return st, err
}

// ConsumeDeltas consumes several sources as one feed batch and awaits it:
// the batch commits on the pipelined path (commit i overlaps the compute of
// deltas j > i), publishes, and replays into every agent before the call
// returns. It submits to the open standing feed when there is one, and
// otherwise to a feed opened for the call that exchanges right after the
// batch, so the feed is always the engine's only producer. Every delta of the
// batch links against the KG state at batch start (that is what makes the
// batch deterministic), so two sources in one batch that describe the same
// real-world entity each mint their own KG entity — and resolution never
// merges two existing KG entities afterwards (≤1 graph entity per cluster).
// Batch only independent sources; consume related sources in separate calls
// so the later one links against the earlier one's output. For a
// continuously arriving stream of batches, prefer Feed: it overlaps each
// batch's publish tail with the next batch's construction.
//
// Error contract: a *construct.BatchError means the committed prefix (see
// that type) stayed applied — its effects are still published so the stores
// track the KG. A publish error does not lose data either: the failed ops are
// queued and re-synced from the KG at the next publish point, and agents are
// always caught up on whatever reached the log before this call returns.
func (p *Platform) ConsumeDeltas(deltas []ingest.Delta) ([]construct.SourceStats, error) {
	res := p.await(func(f *construct.Feed) <-chan construct.BatchResult { return f.Submit(deltas) })
	return res.Stats, res.Err
}

// linkKeysOf collects a commit's settled link-table keys (linked and
// unlinked), sorted for deterministic op encoding.
func linkKeysOf(stats construct.SourceStats) []triple.EntityID {
	if len(stats.Links) == 0 && len(stats.Unlinks) == 0 {
		return nil
	}
	keys := make([]triple.EntityID, 0, len(stats.Links)+len(stats.Unlinks))
	for src := range stats.Links {
		keys = append(keys, src)
	}
	keys = append(keys, stats.Unlinks...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// resolveLinks splits link-table keys into their current state: keys still
// linked (with their target) and keys gone. Resolution happens at publish
// time — like entity carry state — so retries and conflated groups always
// ship the table's latest truth, which is convergent however publishes and
// commits interleave.
func (p *Platform) resolveLinks(srcs []triple.EntityID) (links map[triple.EntityID]triple.EntityID, unlinks []triple.EntityID) {
	for _, src := range srcs {
		if tgt, ok := p.KG.Lookup(src); ok {
			if links == nil {
				links = make(map[triple.EntityID]triple.EntityID)
			}
			links[src] = tgt
		} else {
			unlinks = append(unlinks, src)
		}
	}
	return links, unlinks
}

// publishRaw is the platform's single gate onto the engine's publish path.
// Link deltas ride the ops: the log is the only durable record of the
// construction link table (entity payloads cannot reproduce it), so recovery
// replays Links/Unlinks alongside the payloads. On failure it queues the
// affected entity IDs and link keys for retry, so a transient engine error
// never leaves the stores permanently behind the KG: the next publish point
// re-syncs them from the KG's then-current state.
func (p *Platform) publishRaw(source string, upserts []*triple.Entity, removed []triple.EntityID, linkSrcs []triple.EntityID) error {
	var err error
	if p.publishHook != nil {
		err = p.publishHook(source)
	}
	links, unlinks := p.resolveLinks(linkSrcs)
	if err == nil && len(upserts) > 0 {
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Source: source, Links: links, Unlinks: unlinks}, upserts)
		links, unlinks = nil, nil // attached; don't repeat on the delete op
	}
	if err == nil && len(removed) > 0 {
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpDelete, Source: source, EntityIDs: removed, Links: links, Unlinks: unlinks}, nil)
		links, unlinks = nil, nil
	}
	if err == nil && (len(links) > 0 || len(unlinks) > 0) {
		// Links-only op: the commit settled link-table entries without any
		// unpublished entity state (or the entity ops conflated away).
		_, err = p.Engine.PublishOp(oplog.Op{Kind: oplog.OpUpsert, Source: source, Links: links, Unlinks: unlinks}, nil)
	}
	if err != nil {
		ids := make([]triple.EntityID, 0, len(upserts)+len(removed))
		for _, e := range upserts {
			ids = append(ids, e.ID)
		}
		ids = append(ids, removed...)
		p.pendingMu.Lock()
		p.pending = append(p.pending, pendingPublish{source: source, ids: ids, linkSrcs: linkSrcs})
		p.pendingMu.Unlock()
	}
	return err
}

// flushPending retries publishes that previously failed. Each retry syncs the
// stores toward the KG's current state for the recorded entities — upsert the
// ones still present, delete the ones gone — which is idempotent and safe to
// interleave with any later successful publishes of the same entities. Still-
// failing retries re-queue themselves (inside publishRaw).
func (p *Platform) flushPending() error {
	p.pendingMu.Lock()
	pend := p.pending
	p.pending = nil
	p.pendingMu.Unlock()
	var firstErr error
	for _, pp := range pend {
		var upserts []*triple.Entity
		var removed []triple.EntityID
		for _, id := range pp.ids {
			if e := p.KG.Graph.GetShared(id); e != nil {
				upserts = append(upserts, e)
			} else {
				removed = append(removed, id)
			}
		}
		if err := p.publishRaw(pp.source, upserts, removed, pp.linkSrcs); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FeedOptions configures the platform's standing ingestion feed.
type FeedOptions struct {
	// Queue bounds batches accepted but not yet committing; Submit blocks —
	// backpressure — while full. 0 means construct.DefaultFeedQueue.
	Queue int
	// PublishQueue bounds committed batches awaiting the async publisher;
	// the commit loop stalls while full, so a slow Graph Engine
	// backpressures ingestion instead of growing an unbounded unpublished
	// backlog. 0 means construct.DefaultFeedPublishQueue.
	PublishQueue int
}

// Feed opens the platform's standing ingestion feed: a long-lived commit
// loop over the construction pipeline in which batch N+1's validation,
// KG-read snapshotting, and compute begin as soon as batch N's last commit
// (not its publish) finishes, while publishing to the Graph Engine runs on
// an ordered asynchronous publisher off the commit path. The KG a feed
// constructs is byte-identical to back-to-back ConsumeDeltas calls over the
// same batches; the serving stores converge to the same state once the feed
// drains (a batch's BatchResult with a nil Err means it is committed,
// published, and replayed into every agent — on a single partition; with
// several, entities with deferred volatile ops publish at the next exchange).
//
// At most one feed is open at a time — the construction pipeline is the
// polystore's single producer. While a feed is open, ConsumeDelta and
// ConsumeDeltas route through it (submit and await), and checkpoint,
// serving-refresh, and curation paths take a barrier turn through it, which
// also forces an exchange. Close the feed before reading the serving stores
// directly; quiesce submitters before applying curation decisions so hot-fix
// publishes cannot interleave with captured batch publishes.
func (p *Platform) Feed(opts FeedOptions) (*construct.Feed, error) {
	if opts.Queue <= 0 {
		opts.Queue = p.feedDefaults.Queue
	}
	if opts.PublishQueue <= 0 {
		opts.PublishQueue = p.feedDefaults.PublishQueue
	}
	for {
		p.feedMu.Lock()
		f, owned := p.feed, p.feedOwned
		if f == nil || f.Terminated() {
			f = p.openFeedLocked(opts, p.exchangeEvery, false)
			p.feedMu.Unlock()
			return f, nil
		}
		p.feedMu.Unlock()
		if !owned {
			// Closed-but-still-draining counts as open: its commit loop and
			// publisher are still producing, and two feeds would break the
			// engine's single-producer ordering.
			return nil, fmt.Errorf("core: a standing feed is already open")
		}
		// A platform call's own feed: let its batches settle first (a call
		// that has not submitted yet retries on this feed).
		_ = f.Close() //saga:errok the owning call reports its own batch's error
	}
}

// openFeedLocked starts a feed with the platform's capture and publish hooks
// and installs it in the feed slot (callers hold feedMu, and the previous
// feed has terminated). exchangeEvery is its cross-partition exchange
// cadence in batches.
func (p *Platform) openFeedLocked(opts FeedOptions, exchangeEvery int, owned bool) *construct.Feed {
	c := &feedCapture{p: p, exchangeEvery: exchangeEvery, held: make(map[triple.EntityID]string)}
	p.feed = construct.NewFeed(p.Pipeline, construct.FeedOptions{
		Queue:        opts.Queue,
		PublishQueue: opts.PublishQueue,
		OnCommit:     c.capture,
		Publish:      p.publishFeedGroup,
		OnClose:      c.close,
	})
	p.feedOwned = owned
	return p.feed
}

// acquireFeed returns the feed a platform call rides: the open standing feed,
// or — when none is open — a feed opened for the call (owned), which
// exchanges after every batch and which the caller closes once its turn has
// settled. A feed that is still closing settles first, so there is never a
// second producer.
func (p *Platform) acquireFeed() (f *construct.Feed, owned bool) {
	for {
		p.feedMu.Lock()
		f = p.feed
		if f == nil || f.Terminated() {
			f = p.openFeedLocked(p.feedDefaults, 1, true)
			p.feedMu.Unlock()
			return f, true
		}
		p.feedMu.Unlock()
		if !f.Closed() {
			return f, false
		}
		_ = f.Close() //saga:errok a closing feed's errors belong to its own batches
	}
}

// await takes one turn through the feed — a batch or a barrier — and waits
// for its result: committed, published, and replayed into every agent.
func (p *Platform) await(turn func(*construct.Feed) <-chan construct.BatchResult) construct.BatchResult {
	for {
		f, owned := p.acquireFeed()
		res := <-turn(f)
		if owned {
			_ = f.Close() //saga:errok the turn's own error is in res
		}
		if !errors.Is(res.Err, construct.ErrFeedClosed) {
			return res
		}
		// Closed between acquire and submit: nothing happened; go again.
	}
}

// capturedOp is one delta's publish payload, captured on the feed's commit
// loop right after its batch commits. Capturing there (shared records — no
// clone, just pointer grabs) pins exactly the entity states the commit
// produced, so the async publisher appends the same operations to the log
// no matter how far construction has advanced by the time the publish runs.
type capturedOp struct {
	source   string
	upserts  []*triple.Entity
	removed  []triple.EntityID
	linkSrcs []triple.EntityID
}

// capturedBatch is a feed batch's payload after capture: its ops, and
// whether the publisher checkpoints after the group that carries it.
type capturedBatch struct {
	ops        []capturedOp
	checkpoint bool
}

// feedCapture is one feed's commit-loop state: the exchange cadence and the
// entities held back because they have deferred volatile ops (entity → the
// source that last touched it). Only the commit loop and OnClose touch it.
type feedCapture struct {
	p             *Platform
	exchangeEvery int
	sinceExchange int
	held          map[triple.EntityID]string
}

// capture is the feed's OnCommit hook (commit loop, ordered). Every
// exchangeEvery batches, and at every barrier and checkpoint, it runs the
// cross-partition exchange first (FlushVolatile; a no-op on one partition)
// and captures the held-back entities at their now-final state. It then
// captures the batch's touched entities, holding back those that still have
// deferred volatile ops, so the stores never observe a state a single
// partition couldn't have published.
func (c *feedCapture) capture(b *construct.FeedBatch) {
	p := c.p
	_, ckpt := b.Payload.(checkpointRequest)
	if !b.Barrier {
		c.sinceExchange++
		ckpt = p.checkpointDue()
	}
	var ops []capturedOp
	if b.Barrier || ckpt || c.sinceExchange >= c.exchangeEvery {
		p.Pipeline.FlushVolatile()
		c.sinceExchange = 0
		ops = c.takeHeld()
	}
	deferred := p.Pipeline.PendingVolatile() > 0
	for i := range b.Stats {
		st := &b.Stats[i]
		linkSrcs := linkKeysOf(*st)
		if len(st.Touched) == 0 && len(st.Removed) == 0 && len(linkSrcs) == 0 {
			continue
		}
		op := capturedOp{source: st.Source, removed: st.Removed, linkSrcs: linkSrcs}
		for _, id := range st.Touched {
			if deferred && p.Pipeline.HasPending(id) {
				c.held[id] = st.Source
				continue
			}
			delete(c.held, id)
			if e := p.KG.Graph.GetShared(id); e != nil {
				op.upserts = append(op.upserts, e)
			}
		}
		for _, id := range st.Removed {
			delete(c.held, id)
		}
		ops = append(ops, op)
	}
	b.Payload = capturedBatch{ops: ops, checkpoint: ckpt}
}

// takeHeld captures every held-back entity at its current state (upsert if
// present, delete if gone), in id order with consecutive same-source
// entities sharing one op, and clears the held set.
func (c *feedCapture) takeHeld() []capturedOp {
	ids := make([]triple.EntityID, 0, len(c.held))
	for id := range c.held {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var ops []capturedOp
	for _, id := range ids {
		if n := len(ops); n == 0 || ops[n-1].source != c.held[id] {
			ops = append(ops, capturedOp{source: c.held[id]})
		}
		op := &ops[len(ops)-1]
		if e := c.p.KG.Graph.GetShared(id); e != nil {
			op.upserts = append(op.upserts, e)
		} else {
			op.removed = append(op.removed, id)
		}
	}
	clear(c.held)
	return ops
}

// close is the feed's OnClose hook: after the feed's last batch settled, one
// final exchange turn captures and publishes whatever is still held back, so
// a closed feed leaves every store reflecting every committed batch.
func (c *feedCapture) close() {
	b := &construct.FeedBatch{Barrier: true}
	c.capture(b)
	_ = c.p.publishFeedGroup([]*construct.FeedBatch{b}) //saga:errok failed publishes re-queue inside publishRaw and retry at the next publish point
}

// publishFeedGroup is the feed's Publish hook (publisher goroutine, ordered),
// the platform's one publisher: it retries any queued failed publishes,
// appends the group's captured operations to the log, catches every agent
// up, and takes a checkpoint when a batch of the group asked for one.
//
// The group is the publisher's whole backlog, which enables conflation
// (group commit): an entity touched by several batches of the group is
// published once, at its final captured state, under the source that wrote
// it last. The stores converge to exactly the state per-batch publishing
// would have reached — captured records are immutable and the final state is
// the last batch's — while the log carries one operation per entity per
// drain instead of one per entity per batch. On an update-heavy stream this
// is what lets a publisher that falls behind catch back up instead of
// lagging forever.
func (p *Platform) publishFeedGroup(group []*construct.FeedBatch) error {
	// Retry failures belong to the batch that first reported them; they stay
	// queued (flushPending re-queues what still fails) without failing this
	// group's results.
	_ = p.flushPending()

	// Flatten the group's captured ops into per-entity events, in capture
	// order, then keep only each entity's last event. Consecutive survivors
	// from the same source and kind collapse into one log operation, so op
	// granularity adapts to however the sources interleave.
	type event struct {
		source string
		id     triple.EntityID
		e      *triple.Entity // nil means delete
	}
	var evs []event
	linkBySrc := make(map[string]map[triple.EntityID]bool)
	wantCkpt := false
	for _, b := range group {
		cb, _ := b.Payload.(capturedBatch)
		wantCkpt = wantCkpt || cb.checkpoint
		for _, op := range cb.ops {
			for _, e := range op.upserts {
				evs = append(evs, event{source: op.source, id: e.ID, e: e})
			}
			for _, id := range op.removed {
				evs = append(evs, event{source: op.source, id: id})
			}
			for _, src := range op.linkSrcs {
				set := linkBySrc[op.source]
				if set == nil {
					set = make(map[triple.EntityID]bool)
					linkBySrc[op.source] = set
				}
				set[src] = true
			}
		}
	}
	last := make(map[triple.EntityID]int, len(evs))
	for i, ev := range evs {
		last[ev.id] = i
	}
	// takeLinks hands a source its conflated link-table keys, once: the keys
	// ride the source's first published op of the group (resolution happens at
	// publish time against the fully committed KG, so where in the group they
	// resolve cannot change the outcome).
	takeLinks := func(source string) []triple.EntityID {
		set := linkBySrc[source]
		if len(set) == 0 {
			delete(linkBySrc, source)
			return nil
		}
		delete(linkBySrc, source)
		srcs := make([]triple.EntityID, 0, len(set))
		for src := range set {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		return srcs
	}
	var firstErr error
	flush := func(source string, upserts []*triple.Entity, removed []triple.EntityID) {
		if len(upserts) == 0 && len(removed) == 0 {
			return
		}
		if err := p.publishRaw(source, upserts, removed, takeLinks(source)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var (
		runSource  string
		runUpserts []*triple.Entity
		runRemoved []triple.EntityID
	)
	for i, ev := range evs {
		if last[ev.id] != i {
			continue // a later batch republished or deleted this entity
		}
		if ev.source != runSource {
			flush(runSource, runUpserts, runRemoved)
			runSource, runUpserts, runRemoved = ev.source, nil, nil
		}
		if ev.e != nil {
			runUpserts = append(runUpserts, ev.e)
		} else {
			runRemoved = append(runRemoved, ev.id)
		}
	}
	flush(runSource, runUpserts, runRemoved)
	// A source whose entity events all conflated away still owes its link
	// deltas: they ride a links-only op, one per source, in source order.
	if len(linkBySrc) > 0 {
		rest := make([]string, 0, len(linkBySrc))
		for source := range linkBySrc {
			rest = append(rest, source)
		}
		sort.Strings(rest)
		for _, source := range rest {
			if err := p.publishRaw(source, nil, nil, takeLinks(source)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := p.Engine.CatchUp(); err != nil && firstErr == nil {
		firstErr = err
	}
	if wantCkpt {
		if _, err := p.runCheckpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// drainFeed takes a barrier turn through the feed, so direct readers of the
// serving stores observe a state that includes every batch submitted before
// the call, fully exchanged and published. Batch errors surface on the
// per-batch result channels, not here. Batches submitted concurrently with
// the drain land afterwards — callers that need a quiescent platform (for
// example curation runs) should stop submitting or Close the feed first.
func (p *Platform) drainFeed() {
	p.await(func(f *construct.Feed) <-chan construct.BatchResult { return f.Barrier(nil) })
}

// Close shuts the platform down, in dependency order: the standing feed (if
// open) is closed and its backlog exchanged and published, the background
// compactor is stopped and waited for, and only then do the operation log,
// staging store, checkpoint store, entity store, and text index release
// their storage backends (for durable backends that also syncs and closes
// their files) — so no compaction or publish can race a closing store, and
// a clean Close leaves no deferred exchanges or orphaned segments behind.
// Close is not safe concurrently with other platform calls; the platform is
// unusable afterwards. Reopen with Open to recover.
func (p *Platform) Close() error {
	p.feedMu.Lock()
	f := p.feed
	p.feedMu.Unlock()
	var firstErr error
	if f != nil {
		// A feed closed earlier has reported its errors already; Close still
		// waits for it to settle.
		closed := f.Closed()
		if err := f.Close(); err != nil && !closed {
			firstErr = err
		}
	}
	p.stopCompactor()
	if p.Checkpoints != nil {
		if err := p.Checkpoints.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := p.Engine.Log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.Engine.Staging.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.EntityStore.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := p.TextIndex.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Checkpoint publishes a construction checkpoint — durably snapshotting the
// KG when the platform has a checkpoint store — and materializes all
// registered views over a consistent snapshot of the graph replica. The
// snapshot is copy-on-write (O(shards), not O(|KG|)), so a view refresh on a
// large graph neither pays a deep copy nor stalls concurrent commits. The
// checkpoint rides the feed's ordered publisher (a barrier turn, which also
// exchanges), covering every batch submitted before this call without
// stalling the commit loop.
func (p *Platform) Checkpoint() (views.RunStats, error) {
	res := p.await(func(f *construct.Feed) <-chan construct.BatchResult { return f.Barrier(checkpointRequest{}) })
	if res.Err != nil {
		return views.RunStats{}, res.Err
	}
	names := p.ViewCatalog.Names()
	if len(names) == 0 {
		return views.RunStats{}, nil
	}
	ctx := views.NewContext(p.GraphReplica.Snapshot())
	return p.ViewManager.Materialize(ctx, names...)
}

// checkpointRequest is the barrier payload that asks the feed's publisher
// for a checkpoint at the barrier's ordered turn.
type checkpointRequest struct{}

// RefreshServing pushes the stable KG into the live store (the stable view
// the live KG unions with streaming sources) with importance-based boosts,
// and points live mention resolution plus the intent handler at NERD when
// built. The feed is drained first (which also retries queued failed
// publishes), so the stable view includes every batch submitted before this
// call (best-effort: a still-failing engine leaves the replica at its last
// converged state). Entities gone from the KG since the last refresh leave
// the live store.
func (p *Platform) RefreshServing() {
	p.drainFeed()
	scores := importance.Compute(p.GraphReplica, importance.Options{})
	boosts := make(map[triple.EntityID]float64, len(scores))
	var stable []*triple.Entity
	// Shared records suffice: the live store clones on Put, so the stable
	// view loads without an extra copy of the whole KG.
	p.GraphReplica.RangeShared(func(e *triple.Entity) bool {
		stable = append(stable, e)
		return true
	})
	for id, s := range scores {
		boosts[id] = s.Importance
	}
	p.LiveConstructor.LoadStableView(stable, boosts)
}

// BuildNERD materializes the NERD Entity View over the current replica and
// wires the stack into object resolution (construction), live mention
// resolution, and intent argument resolution. The replica snapshot it reads
// is copy-on-write, so rebuilding NERD on a large KG no longer deep-copies
// the graph or blocks replica writes for the duration.
func (p *Platform) BuildNERD() *nerd.NERD {
	p.drainFeed()
	scores := importance.Compute(p.GraphReplica, importance.Options{})
	view := nerd.BuildEntityView(p.GraphReplica.Snapshot(), scores)
	p.NERD = nerd.New(view, nerd.NewModel(nil))
	p.Pipeline.Resolver = p.NERD
	p.LiveConstructor.Resolver = p.NERD
	p.Intents.Resolver = p.NERD
	return p.NERD
}

// Query executes a KGQ query against the live engine: the text compiles
// once through the engine's plan cache (Parse → Plan), then the plan runs
// against the current store snapshot with per-version result caching.
func (p *Platform) Query(text string) (kgq.Result, error) {
	plan, err := p.LiveEngine.PlanText(text)
	if err != nil {
		return kgq.Result{}, err
	}
	return p.LiveEngine.Execute(plan)
}

// ApplyCurationDecisions drains curation decisions from the live queue and
// feeds them to the stable KG as the curation streaming source (§4.3): edits
// become updated facts, blocks become deletions of the offending fact's
// source attribution.
func (p *Platform) ApplyCurationDecisions() (int, error) {
	decisions := p.Curation.DrainDecisions()
	if len(decisions) == 0 {
		return 0, nil
	}
	// Curation writes the graph directly and publishes through the engine;
	// serialize behind the standing feed so hot fixes land on (and publish
	// after) every batch submitted before them. Submitters racing this call
	// can still commit afterwards — quiesce the feed around curation runs
	// if hot fixes must not interleave with in-flight batches.
	p.drainFeed()
	if err := p.flushPending(); err != nil {
		return 0, err
	}
	for _, d := range decisions {
		switch d.Kind {
		case live.DecisionEdit:
			p.KG.Graph.Update(d.Entity, func(e *triple.Entity) {
				for i, t := range e.Triples {
					if t.Key() == d.Fact.Key() {
						e.Triples[i].Object = d.NewValue
						e.Triples[i].Sources = []string{live.CurationSource}
						e.Triples[i].Trust = []float64{1}
					}
				}
			})
		case live.DecisionBlock:
			p.KG.Graph.Update(d.Entity, func(e *triple.Entity) {
				kept := e.Triples[:0]
				for _, t := range e.Triples {
					if t.Key() != d.Fact.Key() {
						kept = append(kept, t)
					}
				}
				e.Triples = kept
			})
		case live.DecisionBlockEntity:
			p.KG.Graph.Delete(d.Entity)
		}
		// Curation writes bypass the construction pipeline, so report the
		// touched entity to the pipeline's KG-derived caches (block index,
		// alias-resolver cache) ourselves.
		p.Pipeline.RefreshKGCaches(d.Entity)
		// Publish the hot fix so every store converges.
		if d.Kind == live.DecisionBlockEntity {
			if _, err := p.Engine.PublishDelete(live.CurationSource, []triple.EntityID{d.Entity}); err != nil {
				return 0, err
			}
		} else if e := p.KG.Graph.GetShared(d.Entity); e != nil {
			if _, err := p.Engine.Publish(oplog.OpCuration, live.CurationSource, []*triple.Entity{e}); err != nil {
				return 0, err
			}
		}
	}
	return len(decisions), p.Engine.CatchUp()
}

// DrainConflicts returns and clears the construction pipeline's accumulated
// fusion conflicts.
func (p *Platform) DrainConflicts() []construct.Conflict {
	return p.Pipeline.DrainConflicts()
}

// Stats summarizes the platform state.
type Stats struct {
	Graph        triple.Stats
	Links        int
	LogLSN       uint64
	LiveEntities int
	// BlockIndex reports the incremental linking indexes, summed over
	// partitions.
	BlockIndex construct.BlockIndexStats
	// Fusion reports the commit phase's fusion traffic; Payloads/Targets is
	// the per-target batching amortization.
	Fusion construct.FusionStats
	// Partitions is the construction partition count; Volatile counts the
	// deferred-overwrite traffic (zero on one partition).
	Partitions int
	Volatile   construct.VolatileBacklogStats
}

// Stats gathers platform statistics.
func (p *Platform) Stats() Stats {
	return Stats{
		Graph:        p.KG.Graph.Stats(),
		Links:        p.KG.LinkCount(),
		LogLSN:       p.Engine.Log.LastLSN(),
		LiveEntities: p.Live.Len(),
		BlockIndex:   p.Pipeline.BlockIndexStats(),
		Fusion:       p.Pipeline.FusionStats(),
		Partitions:   p.Pipeline.Partitions(),
		Volatile:     p.Pipeline.VolatileStats(),
	}
}
