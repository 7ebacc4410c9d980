// Package graphengine implements the Knowledge Graph Query Engine's data
// lifecycle layer (§3.1, Figure 6): a federated polystore in which the KG
// construction pipeline is the sole producer, payloads are staged in a
// high-throughput object store, ingest operations flow through the durable
// operation log, and per-store orchestration agents replay operations in
// order so every engine eventually derives its view of the KG from the same
// base data. Agents track their replay progress (LSN) in a metadata store,
// from which consumers read store freshness.
package graphengine

import (
	"fmt"
	"sync"

	"saga/internal/oplog"
	"saga/internal/storage"
	"saga/internal/storage/disk"
	"saga/internal/storage/memory"
	"saga/internal/triple"
)

// ObjectStore is the staging store for ingest payloads: a durable,
// high-throughput blob store keyed by staging key — write once, read by any
// agent, delete after retention. It is the storage.BlobStore role; the
// memory backend serves tests and ephemeral deployments, durable backends
// persist payloads so a durable operation log can be replayed after a
// restart.
type ObjectStore = storage.BlobStore

// NewObjectStore constructs an empty in-memory staging store.
func NewObjectStore() ObjectStore { return memory.NewBlobStore() }

// NewDirObjectStore opens (creating if needed) a directory-backed staging
// store (one file per payload — the layout durable deployments shipped
// with). Existing payloads are retained and the key sequence resumes past
// them. The disk backend's segment-file store supersedes this for new
// deployments.
func NewDirObjectStore(dir string) (ObjectStore, error) {
	return disk.OpenDirBlobStore(dir)
}

// Agent is one orchestration agent: it encapsulates all store-specific logic
// for applying a KG update to its engine. The rest of the framework is
// generic — onboarding a new storage engine means implementing this
// interface and registering it (§3.1's extensibility goal).
type Agent interface {
	// Name identifies the agent in the metadata store.
	Name() string
	// Apply replays one operation. Entities is the decoded staged payload
	// (nil for operations without payloads, such as deletes or checkpoints).
	Apply(op oplog.Op, entities []*triple.Entity) error
}

// MetadataStore tracks each agent's replayed LSN; consumers read a store's
// freshness from it ("serving at least KG version X").
type MetadataStore struct {
	mu   sync.RWMutex
	lsns map[string]uint64
}

// NewMetadataStore constructs an empty metadata store.
func NewMetadataStore() *MetadataStore {
	return &MetadataStore{lsns: make(map[string]uint64)}
}

// SetLSN records that the agent replayed through the LSN.
func (m *MetadataStore) SetLSN(agent string, lsn uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lsns[agent] = lsn
}

// LSN returns the agent's replayed LSN.
func (m *MetadataStore) LSN(agent string) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lsns[agent]
}

// MinLSN returns the minimum replayed LSN across agents: the KG version every
// store is guaranteed to serve.
func (m *MetadataStore) MinLSN() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	first := true
	var min uint64
	for _, lsn := range m.lsns {
		if first || lsn < min {
			min, first = lsn, false
		}
	}
	return min
}

// Engine wires the log, staging store, metadata store, and agents into the
// polystore coordinator.
//
// Publish ordering contract: operations take effect in LSN order, and LSNs
// are assigned in Publish/PublishDelete call order (the log serializes
// appends). The engine does not reorder or deduplicate — whoever calls
// Publish concurrently gets whatever interleaving the log's lock produced.
// The platform therefore routes every publish through a single producer at a
// time: either a synchronous consume call or the standing feed's ordered
// publisher goroutine, never both (with a feed open, synchronous consumes
// are routed through it, and the remaining direct producers — checkpoint
// and curation — drain it first). CatchUp is
// additionally serialized internally, so a replay triggered from one
// goroutine can never double-apply operations racing a replay from another.
type Engine struct {
	Log      *oplog.Log
	Staging  ObjectStore
	Metadata *MetadataStore

	mu     sync.RWMutex
	agents []Agent

	// catchupMu serializes CatchUp: agent Apply methods and the per-agent
	// LSN bookkeeping assume one replayer at a time.
	catchupMu sync.Mutex
}

// New constructs an engine over the given log with in-memory staging.
func New(log *oplog.Log) *Engine {
	return NewWithStaging(log, NewObjectStore())
}

// NewWithStaging constructs an engine with an explicit staging store; pair a
// durable log with NewDirObjectStore so replay survives restarts.
func NewWithStaging(log *oplog.Log, staging ObjectStore) *Engine {
	return &Engine{Log: log, Staging: staging, Metadata: NewMetadataStore()}
}

// RegisterAgent adds an orchestration agent; its replay position starts at 0,
// so the next CatchUp replays the full log into it.
func (e *Engine) RegisterAgent(a Agent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.agents = append(e.agents, a)
	e.Metadata.SetLSN(a.Name(), 0)
}

// Agents returns the registered agent names.
func (e *Engine) Agents() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, len(e.agents))
	for i, a := range e.agents {
		out[i] = a.Name()
	}
	return out
}

// Publish stages the entity payload, appends the operation to the log, and
// returns the assigned LSN. It is the single write path into the polystore:
// construction publishes upserts, deletes, partition overwrites, curation
// fixes, and checkpoints through it.
func (e *Engine) Publish(kind oplog.OpKind, source string, entities []*triple.Entity) (uint64, error) {
	return e.PublishOp(oplog.Op{Kind: kind, Source: source}, entities)
}

// PublishOp stages the entity payload for a caller-built operation (which
// may already carry link deltas or other metadata), appends it to the log,
// and returns the assigned LSN. The op's StagingKey, EntityIDs, LSN, and
// Time are filled here; everything else passes through.
func (e *Engine) PublishOp(op oplog.Op, entities []*triple.Entity) (uint64, error) {
	if len(entities) > 0 {
		payload, err := encodeEntities(entities)
		if err != nil {
			return 0, fmt.Errorf("graphengine: encode payload: %w", err)
		}
		key, err := e.Staging.Stage(payload)
		if err != nil {
			return 0, fmt.Errorf("graphengine: stage payload: %w", err)
		}
		op.StagingKey = key
		op.EntityIDs = op.EntityIDs[:0]
		for _, ent := range entities {
			op.EntityIDs = append(op.EntityIDs, ent.ID)
		}
	}
	lsn, err := e.Log.Append(op)
	if err != nil {
		return 0, fmt.Errorf("graphengine: append op: %w", err)
	}
	return lsn, nil
}

// PublishDelete appends a delete operation for the given entities.
func (e *Engine) PublishDelete(source string, ids []triple.EntityID) (uint64, error) {
	return e.Log.Append(oplog.Op{Kind: oplog.OpDelete, Source: source, EntityIDs: ids})
}

// catchupChunk is the number of log operations decoded ahead of each
// agent-parallel replay round. Chunking bounds how many decoded payloads are
// live at once while keeping the per-round goroutine cost negligible
// (one goroutine per agent per chunk, not per op).
const catchupChunk = 128

// CatchUp replays pending operations into every agent and advances each
// agent's LSN in the metadata store. Replay is agent-parallel: each staged
// payload is decoded once per chunk of the log, then every agent applies the
// chunk to its own independent store concurrently, in log order within the
// agent. Agents share no state — each derives its view from the same decoded
// copies — so the concurrent schedule produces exactly the stores the old
// op-major sequential replay did.
//
// Error isolation is per agent: an agent that fails stops advancing (and
// resumes from its recorded LSN on the next CatchUp, so transient store
// errors heal without data loss) while the other agents keep replaying —
// stores degrade independently, never inconsistently. The returned error is
// deterministic regardless of goroutine schedule: the failure at the lowest
// LSN, ties broken by agent registration order — the same error the
// sequential replay reported first. CatchUp is safe for concurrent use:
// calls serialize, so two replayers can never apply the same operation to an
// agent twice.
func (e *Engine) CatchUp() error {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	e.mu.RLock()
	agents := append([]Agent(nil), e.agents...)
	e.mu.RUnlock()
	if len(agents) == 0 {
		return nil
	}
	from := make([]uint64, len(agents))
	min := uint64(0)
	for i, a := range agents {
		from[i] = e.Metadata.LSN(a.Name())
		if i == 0 || from[i] < min {
			min = from[i]
		}
	}
	ops := e.Log.Read(min, 0)
	var (
		stopped  = make([]bool, len(agents))
		agentErr = make([]error, len(agents))
		errLSN   = make([]uint64, len(agents))
	)
	payloads := make([][]*triple.Entity, catchupChunk)
	decodeErr := make([]error, catchupChunk)
	for lo := 0; lo < len(ops); lo += catchupChunk {
		hi := lo + catchupChunk
		if hi > len(ops) {
			hi = len(ops)
		}
		chunk := ops[lo:hi]
		// Decode each staged payload once for the whole chunk — not once per
		// agent, which multiplied the decode cost of the publish path by the
		// agent count. Ops no live agent still needs skip decoding entirely.
		// Agents replay decoded copies, so sharing the slices is safe.
		for ci := range chunk {
			payloads[ci], decodeErr[ci] = nil, nil
			for i := range agents {
				if !stopped[i] && from[i] < chunk[ci].LSN {
					payloads[ci], decodeErr[ci] = e.payloadOf(chunk[ci])
					break
				}
			}
		}
		// One goroutine per live agent; each writes only its own index of the
		// bookkeeping slices, and the decoded chunk is read-only until Wait.
		var wg sync.WaitGroup
		for i := range agents {
			if stopped[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for ci, op := range chunk {
					if from[i] >= op.LSN {
						continue
					}
					err := decodeErr[ci]
					if err == nil {
						err = agents[i].Apply(op, payloads[ci])
					}
					if err != nil {
						stopped[i] = true
						agentErr[i] = err
						errLSN[i] = op.LSN
						return
					}
					e.Metadata.SetLSN(agents[i].Name(), op.LSN)
					from[i] = op.LSN
				}
			}(i)
		}
		wg.Wait()
	}
	best := -1
	for i, err := range agentErr {
		if err == nil {
			continue
		}
		if best == -1 || errLSN[i] < errLSN[best] {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	return fmt.Errorf("graphengine: agent %s at lsn %d: %w", agents[best].Name(), errLSN[best], agentErr[best])
}

func (e *Engine) payloadOf(op oplog.Op) ([]*triple.Entity, error) {
	if op.StagingKey == "" {
		return nil, nil
	}
	payload, ok := e.Staging.Get(op.StagingKey)
	if !ok {
		return nil, fmt.Errorf("staged payload %s missing", op.StagingKey)
	}
	return decodeEntities(payload)
}

// Replay streams every op with LSN > after to fn, decoding each staged
// payload once. Recovery uses it to re-apply the log suffix past a
// checkpoint watermark into the construction KG (agents replay separately,
// through CatchUp).
func (e *Engine) Replay(after uint64, fn func(op oplog.Op, entities []*triple.Entity) error) error {
	for _, op := range e.Log.Read(after, 0) {
		entities, err := e.payloadOf(op)
		if err != nil {
			return fmt.Errorf("graphengine: replay lsn %d: %w", op.LSN, err)
		}
		if err := fn(op, entities); err != nil {
			return err
		}
	}
	return nil
}

// Restore primes every registered agent with checkpoint state instead of a
// from-zero replay: each agent applies the restored entities as synthetic
// upserts (chunked like CatchUp), deletes any stale keys (entities a durable
// store retains that the checkpoint does not — e.g. a delete op at or below
// the watermark that the store had not yet applied when the process died),
// and has its LSN pinned to the watermark so the next CatchUp replays only
// the suffix. The log resumes past the watermark too, so the next publish is
// above every restored agent even when compaction dropped the ops at it.
// Callers invoke Restore once, after registering agents and before the first
// CatchUp.
func (e *Engine) Restore(w uint64, entities []*triple.Entity, stale []triple.EntityID) error {
	e.catchupMu.Lock()
	defer e.catchupMu.Unlock()
	e.Log.ResumeAfter(w)
	e.mu.RLock()
	agents := append([]Agent(nil), e.agents...)
	e.mu.RUnlock()
	for _, a := range agents {
		for lo := 0; lo < len(entities); lo += catchupChunk {
			hi := lo + catchupChunk
			if hi > len(entities) {
				hi = len(entities)
			}
			chunk := entities[lo:hi]
			op := oplog.Op{LSN: w, Kind: oplog.OpUpsert, Source: "recovery"}
			for _, ent := range chunk {
				op.EntityIDs = append(op.EntityIDs, ent.ID)
			}
			if err := a.Apply(op, chunk); err != nil {
				return fmt.Errorf("graphengine: restore agent %s: %w", a.Name(), err)
			}
		}
		if len(stale) > 0 {
			op := oplog.Op{LSN: w, Kind: oplog.OpDelete, Source: "recovery", EntityIDs: stale}
			if err := a.Apply(op, nil); err != nil {
				return fmt.Errorf("graphengine: restore agent %s: %w", a.Name(), err)
			}
		}
		e.Metadata.SetLSN(a.Name(), w)
	}
	return nil
}

// Freshness reports how many operations an agent is behind the log head.
func (e *Engine) Freshness(agent string) (behind uint64) {
	head := e.Log.LastLSN()
	at := e.Metadata.LSN(agent)
	if head < at {
		return 0
	}
	return head - at
}
