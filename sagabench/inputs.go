package main

import (
	"fmt"
	"math/rand"
	"time"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
	"saga/internal/workload"
)

// The KG every workload builds: types entity types, each fed by
// sourcesPerType overlapping sources of count entities.
const (
	types          = 4
	sourcesPerType = 3
	count          = 150
)

// source is one synthetic provider: its generator, the snapshot it
// published last, and the snapshot the KG last consumed.
type source struct {
	spec    workload.SourceSpec
	current []*triple.Entity
	prev    ingest.Snapshot
}

// ingester drives the construction feed: the first sourcesPerType rounds
// add one source per type (so each later source links against the earlier
// ones); after that, cycles of one update round (every source shifts its
// window and re-rolls its noise, so ComputeDelta yields adds, updates and
// deletes) and churnRounds volatile rounds (new popularity values only).
type ingester struct {
	ont   *ontology.Ontology
	rng   *rand.Rand
	types [][]*source
	round int

	// deltaNS and deltaEntities accumulate ingest.ComputeDelta time and the
	// entities it emitted; sourceEntities counts source entities diffed.
	deltaNS        int64
	deltaEntities  int
	sourceEntities int
}

const churnRounds = 3

func newIngester(ont *ontology.Ontology, seed int64, richFacts int) *ingester {
	in := &ingester{ont: ont, rng: rand.New(rand.NewSource(seed))}
	for t := 0; t < types; t++ {
		var srcs []*source
		for s := 0; s < sourcesPerType; s++ {
			srcs = append(srcs, &source{spec: workload.SourceSpec{
				Name:      fmt.Sprintf("k%ds%d", t, s),
				Type:      fmt.Sprintf("kind%02d", t),
				Offset:    s * count / sourcesPerType,
				Count:     count,
				DupRate:   0.05,
				TypoRate:  0.1,
				RichFacts: richFacts,
				Seed:      in.rng.Int63(),
			}})
		}
		in.types = append(in.types, srcs)
	}
	return in
}

// next produces the next round's batch: one delta per source that
// published this round. onDelta, when set, brackets each ComputeDelta call
// (tracing).
func (in *ingester) next(onDelta func(start bool)) []ingest.Delta {
	r := in.round
	in.round++
	var batch []ingest.Delta
	emit := func(src *source) {
		if onDelta != nil {
			onDelta(true)
		}
		t0 := time.Now()
		d, snap := ingest.ComputeDelta(src.spec.Name, src.current, src.prev, in.ont)
		in.deltaNS += int64(time.Since(t0))
		if onDelta != nil {
			onDelta(false)
		}
		src.prev = snap
		in.deltaEntities += len(d.Added) + len(d.Updated) + len(d.Deleted) + len(d.Volatile)
		in.sourceEntities += len(src.current)
		batch = append(batch, d)
	}
	if r < sourcesPerType {
		for _, srcs := range in.types {
			src := srcs[r]
			src.current = src.spec.Entities()
			emit(src)
		}
		return batch
	}
	update := (r-sourcesPerType)%(churnRounds+1) == 0
	for _, srcs := range in.types {
		for _, src := range srcs {
			if update {
				src.spec.Offset += 2 + in.rng.Intn(5)
				src.spec.Seed = in.rng.Int63()
				src.current = src.spec.Entities()
			} else {
				for _, e := range src.current {
					setPopularity(e, in.rng.Float64())
				}
			}
			emit(src)
		}
	}
	return batch
}

// cycleStart reports whether the next round is an update round, the first
// of an update-and-churn cycle.
func (in *ingester) cycleStart() bool {
	return in.round >= sourcesPerType && (in.round-sourcesPerType)%(churnRounds+1) == 0
}

// setPopularity overwrites an entity's popularity facts in place.
func setPopularity(e *triple.Entity, v float64) {
	for i := range e.Triples {
		if e.Triples[i].Predicate == "popularity" {
			e.Triples[i].Object = triple.Float(v)
		}
	}
}

// snapshotKey is the key ingest.ComputeDelta files an entity under in a
// source's snapshot.
func snapshotKey(e *triple.Entity) string {
	if id := e.First(triple.PredSourceID).Text(); id != "" {
		return id
	}
	return e.ID.Local()
}

// sourceEntityIDs lists every entity the sources currently publish.
func (in *ingester) sourceEntityIDs() []triple.EntityID {
	var ids []triple.EntityID
	for _, srcs := range in.types {
		for _, src := range srcs {
			for _, e := range src.current {
				ids = append(ids, e.ID)
			}
		}
	}
	return ids
}

// writeKind is the kind of one stable write in the serve phase.
type writeKind int

const (
	writeVolatile writeKind = iota // popularity churn (volatile overwrite)
	writeUpdate                    // a stable fact update
	writeDelete                    // the entity's only source deletes it
)

func (k writeKind) String() string {
	return [...]string{"volatile", "update", "delete"}[k]
}

// writeMix is the fixed cycle of write kinds: one delete in five, so the
// share of deletes is exact and never depends on the seed.
var writeMix = [...]writeKind{writeVolatile, writeUpdate, writeVolatile, writeUpdate, writeDelete}

// write is one generated one-source delta and what /v1 must show once it is
// servable.
type write struct {
	kind  writeKind
	delta ingest.Delta
	kgID  triple.EntityID // the KG entity /v1 serves it as
	value float64         // popularity or rev value that must be visible
}

// readKind is the route and shape of one /v1 read.
type readKind int

const (
	readLookup readKind = iota // KGQ name lookup
	readRank                   // KGQ rank() | limit
	readEntity                 // /v1/entity
	readSearch                 // /v1/search
)

// read is one generated /v1 request and what its response must contain.
type read struct {
	kind   readKind
	path   string
	target triple.EntityID // entity the response must carry (lookup, entity, search)
	name   string          // name looked up or searched for
}

// rankLimit is the limit() of the rank reads.
const rankLimit = 5

// op is one scheduled load operation: a read, a write or a live event.
type op struct {
	id    uint64        // request id, the op's position in the schedule
	due   time.Duration // offset from the phase start
	read  *read
	write *write
	event *eventOp
}

// eventOp is one live streaming event.
type eventOp struct {
	source, id string
	score      float64
}

// poissonTimes draws arrival offsets of a Poisson stream at rate per second
// over d.
func poissonTimes(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
