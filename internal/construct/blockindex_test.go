package construct

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"saga/internal/ingest"
	"saga/internal/ontology"
	"saga/internal/triple"
)

// Small vocabularies force frequent block collisions so the property tests
// exercise shared, growing, and (under small caps) oversized blocks.
var (
	testFirst = []string{"ada", "alan", "grace", "edsger", "barbara", "donald", "ada", "tony"}
	testLast  = []string{"lovelace", "turing", "hopper", "dijkstra", "liskov", "knuth", "hoare"}
)

func vocabEntity(source string, local int, name string) *triple.Entity {
	e := triple.NewEntity(triple.EntityID(fmt.Sprintf("%s:e%d", source, local)))
	add := func(p string, v triple.Value) { e.Add(triple.New("", p, v).WithSource(source, 0.85)) }
	add(triple.PredType, triple.String("human"))
	add(triple.PredName, triple.String(name))
	return e
}

func vocabName(rng *rand.Rand) string {
	return testFirst[rng.Intn(len(testFirst))] + " " + testLast[rng.Intn(len(testLast))]
}

func cloneDelta(d ingest.Delta) ingest.Delta {
	out := ingest.Delta{Source: d.Source, Deleted: append([]triple.EntityID(nil), d.Deleted...)}
	for _, e := range d.Added {
		out.Added = append(out.Added, e.Clone())
	}
	for _, e := range d.Updated {
		out.Updated = append(out.Updated, e.Clone())
	}
	for _, e := range d.Volatile {
		out.Volatile = append(out.Volatile, e.Clone())
	}
	return out
}

// payloadPairs filters a full-scan blocking result to the pairs touching at
// least one payload entity — the candidate set the index probe must
// reproduce exactly (the remainder, KG–KG pairs, is inert in resolution).
func payloadPairs(full BlockingResult, payload []*triple.Entity) []Pair {
	srcSet := make(map[triple.EntityID]bool, len(payload))
	for _, e := range payload {
		srcSet[e.ID] = true
	}
	var out []Pair
	for _, p := range full.Pairs {
		if srcSet[p.A] || srcSet[p.B] {
			out = append(out, p)
		}
	}
	return out
}

// TestBlockIndexEquivalenceProperty is the property-style equivalence suite:
// random deltas (adds, updates, deletes — repeated fuse/invalidate cycles)
// consumed in lockstep by a full-scan pipeline and an indexed pipeline under
// several MaxBlockSize caps. After every cycle it asserts that (1) the two
// KGs are byte-identical, (2) the incrementally maintained index is
// structurally identical to an index rebuilt from scratch (no stale or
// leaked postings), and (3) for a random un-consumed probe payload the index
// probe emits exactly the full scan's candidate set restricted to
// payload-touching pairs, in canonical order with no (B,A) duplicates.
func TestBlockIndexEquivalenceProperty(t *testing.T) {
	for _, cap := range []int{0, 6, 48} {
		t.Run(fmt.Sprintf("cap=%d", cap), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7 + int64(cap)))
			ont := ontology.Default()
			kgScan := NewKG()
			scan := NewPipeline(kgScan, ont, 1)
			scan.Link.MaxBlockSize = cap
			kgIdx := NewKG()
			idx := NewPipeline(kgIdx, ont, 1)
			idx.Link.MaxBlockSize = cap
			idx.EnableBlockIndex()
			ix := idx.parts[0].index

			var pool []triple.EntityID // consumed source IDs eligible for update/delete
			for cycle := 0; cycle < 8; cycle++ {
				src := fmt.Sprintf("s%d", cycle)
				d := ingest.Delta{Source: src}
				adds := 5 + rng.Intn(10)
				for i := 0; i < adds; i++ {
					d.Added = append(d.Added, vocabEntity(src, i, vocabName(rng)))
				}
				if rng.Intn(3) == 0 && adds > 1 {
					// Occasional duplicate-ID payload entity.
					d.Added = append(d.Added, vocabEntity(src, 0, vocabName(rng)))
				}
				for i := 0; i < 4 && len(pool) > 0; i++ {
					pick := pool[rng.Intn(len(pool))]
					up := triple.NewEntity(pick)
					upSrc := pick.Namespace()
					up.Add(triple.New("", triple.PredType, triple.String("human")).WithSource(upSrc, 0.85))
					up.Add(triple.New("", triple.PredName, triple.String(vocabName(rng))).WithSource(upSrc, 0.85))
					d.Updated = append(d.Updated, up)
				}
				for i := 0; i < 2 && len(pool) > 2; i++ {
					at := rng.Intn(len(pool))
					d.Deleted = append(d.Deleted, pool[at])
					pool = append(pool[:at], pool[at+1:]...)
				}
				for _, e := range d.Added {
					pool = append(pool, e.ID)
				}

				if _, err := scan.ConsumeDelta(cloneDelta(d)); err != nil {
					t.Fatalf("cycle %d scan: %v", cycle, err)
				}
				if _, err := idx.ConsumeDelta(cloneDelta(d)); err != nil {
					t.Fatalf("cycle %d indexed: %v", cycle, err)
				}

				// (1) Byte-identical KGs.
				if !reflect.DeepEqual(kgScan.Graph.Triples(), kgIdx.Graph.Triples()) {
					t.Fatalf("cycle %d: indexed KG diverged from full scan", cycle)
				}
				// (2) Incremental maintenance equals a from-scratch rebuild:
				// fuse/invalidate cycles must leave no stale postings behind.
				fresh := NewBlockIndex(nil)
				fresh.Build(kgIdx.Graph)
				if !reflect.DeepEqual(ix.postings, fresh.postings) {
					t.Fatalf("cycle %d: incrementally maintained postings diverged from rebuild", cycle)
				}
				// (3) Probe equivalence on a payload that is NOT consumed.
				probe := make([]*triple.Entity, 0, 6)
				for i := 0; i < 6; i++ {
					probe = append(probe, vocabEntity("probe", i, vocabName(rng)))
				}
				params := GenerateParams{MaxBlockSize: cap}
				combined := append(append([]*triple.Entity(nil), probe...), kgIdx.KGView("human")...)
				want := payloadPairs(GeneratePairs(combined, DefaultBlocker(), params), probe)
				got := ix.GeneratePairs(probe, "human", params).Blocking.Pairs
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cycle %d: probe candidate set diverged\n got %v\nwant %v", cycle, got, want)
				}
				seen := make(map[Pair]bool)
				for _, p := range got {
					if p.A > p.B {
						t.Fatalf("cycle %d: non-canonical pair %s", cycle, p)
					}
					if seen[p] || seen[Pair{A: p.B, B: p.A}] {
						t.Fatalf("cycle %d: duplicate or reversed pair %s", cycle, p)
					}
					seen[p] = true
				}
			}
		})
	}
}

// TestLinkAgainstKGMatchesLinkEntities pins the public APIs to each other:
// linking one payload through the index produces the same assignments,
// minted identifiers, and same_as facts as linking against the full KG view.
func TestLinkAgainstKGMatchesLinkEntities(t *testing.T) {
	ont := ontology.Default()
	kg := NewKG()
	p := NewPipeline(kg, ont, 1)
	seed := workloadDelta("base", 0, 30)
	if _, err := p.ConsumeDelta(seed); err != nil {
		t.Fatal(err)
	}
	ix := NewBlockIndex(nil)
	ix.Build(kg.Graph)

	src := []*triple.Entity{
		vocabEntity("q", 1, "ada lovelace"),
		vocabEntity("q", 2, "alan turing"),
		vocabEntity("q", 3, "someone entirely new here"),
	}
	clone := func() []*triple.Entity {
		out := make([]*triple.Entity, len(src))
		for i, e := range src {
			out[i] = e.Clone()
		}
		return out
	}
	mintAt := func(n *int) func() triple.EntityID {
		return func() triple.EntityID {
			*n++
			return triple.EntityID(fmt.Sprintf("kg:M%04d", *n))
		}
	}
	var nFull, nIdx int
	full := LinkEntities(clone(), kg.KGView("human"), "human", mintAt(&nFull), LinkParams{})
	indexed := LinkAgainstKG(clone(), kg, ix, "human", mintAt(&nIdx), LinkParams{})
	if !reflect.DeepEqual(full.Assignment, indexed.Assignment) {
		t.Fatalf("assignments diverged:\nfull %v\nindexed %v", full.Assignment, indexed.Assignment)
	}
	if !reflect.DeepEqual(full.SameAs, indexed.SameAs) {
		t.Fatal("same_as facts diverged")
	}
	if full.NewEntities != indexed.NewEntities || nFull != nIdx {
		t.Fatalf("minting diverged: %d vs %d", nFull, nIdx)
	}
	if indexed.Blocking.Comparisons > full.Blocking.Comparisons {
		t.Fatalf("indexed path scored more pairs (%d) than the full scan (%d)",
			indexed.Blocking.Comparisons, full.Blocking.Comparisons)
	}
}

// workloadDelta builds a deterministic added-only delta of vocab entities.
func workloadDelta(source string, offset, n int) ingest.Delta {
	rng := rand.New(rand.NewSource(int64(offset) + 11))
	d := ingest.Delta{Source: source}
	for i := 0; i < n; i++ {
		d.Added = append(d.Added, vocabEntity(source, offset+i, vocabName(rng)))
	}
	return d
}

// TestResolveIgnoresKGPairs pins the invariant the indexed path's pair
// pruning relies on: KG–KG candidate pairs — positive or negative — never
// change Resolve's output, because a KG entity always pivots its own cluster
// and negative evidence is only consulted for non-KG neighbors. The index
// probe may therefore drop them without affecting the constructed KG.
func TestResolveIgnoresKGPairs(t *testing.T) {
	nodes := []triple.EntityID{"kg:A", "kg:B", "kg:C", "s:1", "s:2", "s:3"}
	base := []ScoredPair{
		{Pair: MakePair("s:1", "kg:A"), Score: 0.9},
		{Pair: MakePair("s:1", "s:2"), Score: 0.9},
		{Pair: MakePair("s:3", "kg:B"), Score: 0.95},
		{Pair: MakePair("s:2", "s:3"), Score: 0.2},
	}
	withKG := append(append([]ScoredPair(nil), base...),
		ScoredPair{Pair: MakePair("kg:A", "kg:B"), Score: 0.99}, // positive KG–KG
		ScoredPair{Pair: MakePair("kg:B", "kg:C"), Score: 0.05}, // negative KG–KG
		ScoredPair{Pair: MakePair("kg:A", "kg:C"), Score: 0.6},  // neutral KG–KG
	)
	for _, workers := range []int{1, 4} {
		got := ResolveParallel(nodes, withKG, ClusterParams{}, workers)
		want := ResolveParallel(nodes, base, ClusterParams{}, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: KG–KG pairs changed resolution:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestBlockIndexMultiplicityCap pins the occurrence-counting semantics: an
// entity emitting the same key k times occupies k slots of the block, for
// the cap check, on both paths. QGramBlocker over a repetitive name emits
// duplicate grams, which is exactly that case.
func TestBlockIndexMultiplicityCap(t *testing.T) {
	blocker := QGramBlocker{Q: 2, Stride: 1}
	kgEnt := namedEntity("kg:R1", "ababa", "human") // grams ab, ba, ab, ba
	payload := []*triple.Entity{namedEntity("p:1", "abxy", "human")}

	ix := NewBlockIndex(blocker)
	g := triple.NewGraph()
	g.Put(kgEnt)
	ix.Build(g)

	for _, cap := range []int{2, 3, 16} {
		params := GenerateParams{MaxBlockSize: cap}
		full := GeneratePairs(append(append([]*triple.Entity(nil), payload...), kgEnt), blocker, params)
		want := payloadPairs(full, payload)
		got := ix.GeneratePairs(payload, "human", params).Blocking.Pairs
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cap=%d: got %v want %v", cap, got, want)
		}
	}
}

// TestBlockIndexRefreshInvalidation exercises the per-key invalidation path
// directly: renaming an entity must move its postings, deleting it must drop
// them, and the posting maps must end exactly where a fresh build would.
func TestBlockIndexRefreshInvalidation(t *testing.T) {
	g := triple.NewGraph()
	e := namedEntity("kg:E1", "Grace Hopper", "human")
	g.Put(e)
	ix := NewBlockIndex(nil)
	ix.Build(g)

	probe := func(name string) int {
		p := []*triple.Entity{namedEntity("p:1", name, "human")}
		return len(ix.GeneratePairs(p, "human", GenerateParams{}).Blocking.Pairs)
	}
	if probe("Grace Hopper") == 0 {
		t.Fatal("expected candidates for indexed name")
	}

	// Rename: old keys must be invalidated, new keys inserted.
	g.Update("kg:E1", func(e *triple.Entity) {
		for i, tr := range e.Triples {
			if tr.Predicate == triple.PredName {
				e.Triples[i].Object = triple.String("Barbara Liskov")
			}
		}
	})
	ix.Refresh(g, "kg:E1")
	if probe("Grace Hopper") != 0 {
		t.Fatal("stale postings survived rename")
	}
	if probe("Barbara Liskov") == 0 {
		t.Fatal("renamed entity not re-indexed")
	}

	// Delete: all postings dropped, maps pruned like a fresh build.
	g.Delete("kg:E1")
	ix.Refresh(g, "kg:E1")
	if probe("Barbara Liskov") != 0 {
		t.Fatal("postings survived delete")
	}
	fresh := NewBlockIndex(nil)
	fresh.Build(g)
	if !reflect.DeepEqual(ix.postings, fresh.postings) || len(ix.entries) != 0 {
		t.Fatal("index structure diverged from rebuild after delete")
	}
}
