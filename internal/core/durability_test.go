package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"saga/internal/construct"
	"saga/internal/ingest"
	"saga/internal/triple"
	"saga/internal/workload"
)

// durableState extends backendState with the construction link table, the
// full piece of recovered state the entity payloads cannot reproduce.
type durableState struct {
	backendState
	Links map[triple.EntityID]triple.EntityID
}

func durableStateOf(t *testing.T, p *Platform) durableState {
	t.Helper()
	return durableState{backendState: stateOf(t, p), Links: p.KG.LinksSnapshot()}
}

// durabilityBatches generates a delta stream with inserts, updates, and
// volatile churn, so recovery exercises upserts, link rewrites, and deletes.
func durabilityBatches(rounds int) [][]ingest.Delta {
	out := make([][]ingest.Delta, 0, rounds)
	for r := 0; r < rounds; r++ {
		spec := workload.SourceSpec{
			Name: "src", Count: 24, Offset: r * 4,
			DupRate: 0.05, TypoRate: 0.1, RichFacts: 2, Seed: int64(r + 1),
		}
		if r == 0 {
			out = append(out, []ingest.Delta{spec.Delta()})
			continue
		}
		d := ingest.Delta{Source: "src", Updated: spec.Entities()}
		if r%3 == 2 {
			churn := workload.SourceSpec{Name: "src", Count: 6, Offset: r, Seed: int64(100 + r)}
			d.Volatile = churn.Entities()
		}
		out = append(out, []ingest.Delta{d})
	}
	return out
}

// durabilityConfigs enumerates the recovery matrix: both durable layouts
// (hybrid memory-backend-with-durability-dir, full disk backend), single and
// partitioned construction.
func durabilityConfigs() []struct {
	name    string
	parts   int
	backend string
} {
	return []struct {
		name    string
		parts   int
		backend string
	}{
		{"hybrid", 1, ""},
		{"hybrid-partitioned", 3, ""},
		{"disk", 1, "disk"},
		{"disk-partitioned", 3, "disk"},
	}
}

// durableOptions builds the Options for one matrix cell rooted at dir.
func durableOptions(cfg struct {
	name    string
	parts   int
	backend string
}, dir string) Options {
	opts := Options{Construction: ConstructionOptions{Workers: 2, Partitions: cfg.parts}}
	if cfg.backend == "" {
		opts.Durability.Dir = dir
	} else {
		opts.Storage = StorageOptions{Backend: cfg.backend, DataDir: dir}
	}
	return opts
}

// copyTree snapshots a directory the way a crash preserves it: file by file,
// tolerating files that vanish or shrink mid-copy (a concurrent compaction
// swapping segments). MANIFEST and checkpoint files copy first, so everything
// they reference was durably complete before the snapshot point — the same
// write-ordering argument real recovery relies on. That argument only covers
// the forward direction, though: a compaction swap that completes *during*
// the copy appends staging tombstones for keys the already-copied (old) log
// still references, an old-log/new-staging mix no real crash can produce
// (tombstones are written strictly after the swapped manifest is durable).
// Every swap rewrites the log MANIFEST, so the copy is accepted only if each
// manifest re-reads byte-identical after the last data file is copied.
// Returns false if the tree mutated so the copy should be retried.
func copyTree(t *testing.T, src, dst string) bool {
	t.Helper()
	var files []string
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // vanished mid-walk
		}
		if !info.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(files, func(i, j int) bool {
		pi := filepath.Base(files[i]) == "MANIFEST" || filepath.Ext(files[i]) == ".ckpt"
		pj := filepath.Base(files[j]) == "MANIFEST" || filepath.Ext(files[j]) == ".ckpt"
		if pi != pj {
			return pi
		}
		return files[i] < files[j]
	})
	manifests := make(map[string][]byte)
	for _, path := range files {
		rel, err := filepath.Rel(src, path)
		if err != nil {
			t.Fatal(err)
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			t.Fatal(err)
		}
		in, err := os.Open(path)
		if err != nil {
			return false // deleted between walk and copy: retry
		}
		out, err := os.Create(target)
		if err != nil {
			in.Close()
			t.Fatal(err)
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) == "MANIFEST" {
			copied, err := os.ReadFile(target)
			if err != nil {
				t.Fatal(err)
			}
			manifests[path] = copied
		}
	}
	// A swap/rotation landed inside the copy window iff a manifest moved
	// since it was copied; the snapshot may then mix old log with newer
	// staging, so discard it.
	for path, copied := range manifests {
		now, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(now, copied) {
			return false
		}
	}
	return true
}

// snapshotTree copies src into a fresh temp dir, retrying while a concurrent
// compaction churns the tree underneath it.
func snapshotTree(t *testing.T, src string) string {
	t.Helper()
	for attempt := 0; attempt < 10; attempt++ {
		dst, err := os.MkdirTemp(t.TempDir(), "snap-*")
		if err != nil {
			t.Fatal(err)
		}
		if copyTree(t, src, dst) {
			return dst
		}
		os.RemoveAll(dst)
	}
	t.Fatal("snapshotTree: tree would not settle after 10 attempts")
	return ""
}

// reopenState opens a platform over dir with the given config, captures its
// full recovered state, and closes it.
func reopenState(t *testing.T, cfg struct {
	name    string
	parts   int
	backend string
}, dir string) durableState {
	t.Helper()
	p, err := Open(durableOptions(cfg, dir))
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	st := durableStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatalf("close reopened platform: %v", err)
	}
	return st
}

// assertSnapshotConverges is the kill-point invariant: a platform reopened
// from the snapshot with its checkpoints must be byte-identical to one
// reopened from the same snapshot with the checkpoints deleted (pure log
// replay from genesis). Checkpoints are an accelerator, never a fork.
func assertSnapshotConverges(t *testing.T, cfg struct {
	name    string
	parts   int
	backend string
}, snap, label string) {
	t.Helper()
	bare := snapshotTree(t, snap)
	if err := os.RemoveAll(filepath.Join(bare, "checkpoints")); err != nil {
		t.Fatal(err)
	}
	withCkpt := reopenState(t, cfg, snap)
	fromLog := reopenState(t, cfg, bare)
	if !reflect.DeepEqual(withCkpt, fromLog) {
		t.Errorf("%s: checkpoint recovery diverged from full log replay\n  ckpt: lsn=%d entities=%d kg=%d links=%d\n  log:  lsn=%d entities=%d kg=%d links=%d",
			label, withCkpt.LastLSN, len(withCkpt.Entities), len(withCkpt.KG), len(withCkpt.Links),
			fromLog.LastLSN, len(fromLog.Entities), len(fromLog.KG), len(fromLog.Links))
	}
}

// TestRecoveryRoundTrip closes a durable platform cleanly and reopens it:
// the construction KG, link table, graph replica, entity store, text index,
// and log position must come back byte-identical, restored from the latest
// checkpoint plus only the log suffix.
func TestRecoveryRoundTrip(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			batches := durabilityBatches(6)
			for _, b := range batches[:4] {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ckptLSN := p.DurabilityStats().LastCheckpointLSN
			if ckptLSN == 0 {
				t.Fatal("no durable checkpoint saved")
			}
			// Two more batches past the checkpoint: the suffix recovery replays.
			for _, b := range batches[4:] {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			want := durableStateOf(t, p)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(durableOptions(cfg, dir))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := durableStateOf(t, re); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs from pre-close state:\n  got:  lsn=%d entities=%d kg=%d links=%d\n  want: lsn=%d entities=%d kg=%d links=%d",
					got.LastLSN, len(got.Entities), len(got.KG), len(got.Links),
					want.LastLSN, len(want.Entities), len(want.KG), len(want.Links))
			}
			st := re.DurabilityStats()
			if st.RecoveredLSN != ckptLSN {
				t.Errorf("recovered from lsn %d, want checkpoint %d", st.RecoveredLSN, ckptLSN)
			}
			if st.RecoveredEntities == 0 {
				t.Error("checkpoint restore reported zero entities")
			}
			if st.ReplayedOps == 0 {
				t.Error("suffix replay reported zero ops; batches past the checkpoint were lost")
			}
		})
	}
}

// TestKillPointRecovery snapshots the durable tree at arbitrary points while
// a standing feed, periodic checkpoints, and background compaction are all
// running — the file-level state a kill -9 leaves — and requires every
// snapshot to reopen successfully and converge: recovery via checkpoint
// byte-identical to full log replay, on every backend and partitioning.
func TestKillPointRecovery(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOptions(cfg, dir)
			opts.Durability.CheckpointEvery = 2
			opts.Durability.CompactAfter = 4
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := p.Feed(FeedOptions{})
			if err != nil {
				t.Fatal(err)
			}

			// Submit the stream from one goroutine while snapshots race it:
			// each snapshot lands mid-batch, mid-checkpoint, or mid-compaction,
			// wherever the platform happens to be.
			batches := durabilityBatches(12)
			var wg sync.WaitGroup
			wg.Add(1)
			results := make([]<-chan construct.BatchResult, len(batches))
			go func() {
				defer wg.Done()
				for i, b := range batches {
					results[i] = f.Submit(b)
				}
			}()
			var snaps []string
			for i := 0; i < 3; i++ {
				snaps = append(snaps, snapshotTree(t, dir))
			}
			wg.Wait()
			for i, ch := range results {
				if res := <-ch; res.Err != nil {
					t.Fatalf("batch %d: %v", i, res.Err)
				}
			}
			// One snapshot with the whole stream committed but the platform
			// still open (feed backlog, compactor state all live).
			f.Drain()
			snaps = append(snaps, snapshotTree(t, dir))
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			want := durableStateOf(t, p)
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			for i, snap := range snaps {
				assertSnapshotConverges(t, cfg, snap, fmt.Sprintf("snapshot %d", i))
			}
			// The cleanly closed tree recovers to exactly the pre-close state.
			if got := reopenState(t, cfg, dir); !reflect.DeepEqual(got, want) {
				t.Error("clean-close recovery differs from pre-close state")
			}
		})
	}
}

// TestFeedBarrierCheckpoint: Checkpoint with an open feed rides the ordered
// publisher as a barrier turn — it must cover every batch submitted before
// it, and a subsequent recovery restores from it with an empty suffix.
func TestFeedBarrierCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durabilityBatches(3) {
		f.Submit(b)
	}
	// No awaits: the barrier itself must order behind the submitted batches.
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := p.DurabilityStats()
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if got := p.Engine.Log.LastLSN(); st.LastCheckpointLSN != got {
		t.Fatalf("checkpoint lsn = %d, log head = %d; barrier did not cover the submitted batches", st.LastCheckpointLSN, got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := durableStateOf(t, p)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rst := re.DurabilityStats()
	if rst.RecoveredLSN != st.LastCheckpointLSN {
		t.Errorf("recovered lsn = %d, want %d", rst.RecoveredLSN, st.LastCheckpointLSN)
	}
	if rst.ReplayedOps != 0 {
		t.Errorf("replayed %d suffix ops, want 0: everything was checkpointed", rst.ReplayedOps)
	}
	if got := durableStateOf(t, re); !reflect.DeepEqual(got, want) {
		t.Error("recovered state differs from pre-close state")
	}
}

// TestPeriodicCheckpointAndCompaction: CheckpointEvery checkpoints ride the
// publisher without any explicit Checkpoint call, CompactAfter triggers the
// background compactor, and the compacted log still recovers byte-identically.
func TestPeriodicCheckpointAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Construction: ConstructionOptions{Workers: 2},
		Durability:   DurabilityOptions{Dir: dir, CheckpointEvery: 1, CompactAfter: 1},
	}
	p, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Feed(FeedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range durabilityBatches(6) {
		// Await each batch so the publisher sees several distinct groups and
		// the periodic counter fires more than once.
		if res := <-f.Submit(b); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	f.Drain()
	st := p.DurabilityStats()
	if st.Checkpoints < 2 {
		t.Fatalf("periodic checkpoints = %d, want >= 2", st.Checkpoints)
	}
	if st.LastCheckpointLSN != p.Engine.Log.LastLSN() {
		t.Fatalf("last checkpoint lsn = %d, log head = %d", st.LastCheckpointLSN, p.Engine.Log.LastLSN())
	}
	if st.CompactionFloor == 0 {
		t.Fatal("no compaction floor after two checkpoints")
	}
	// The compactor runs in the background; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for p.DurabilityStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := durableStateOf(t, p)
	st = p.DurabilityStats()
	if st.CompactionErrors != 0 {
		t.Fatalf("compaction errors = %d: %+v", st.CompactionErrors, st.LastCompaction)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := durabilityConfigs()[0] // hybrid
	if got := reopenState(t, cfg, dir); !reflect.DeepEqual(got, want) {
		t.Error("recovery from the compacted log differs from pre-close state")
	}
}

// TestCloseWithInFlightFeedAndCompaction: Close while the feed still has
// unpublished backlog and the background compactor may be mid-run must settle
// everything in order — every submitted batch commits and publishes, no
// deferred exchanges survive, and the reopened platform matches the closed
// one exactly (orphaned state would surface as a diff or a reopen error).
func TestCloseWithInFlightFeedAndCompaction(t *testing.T) {
	for _, cfg := range durabilityConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := durableOptions(cfg, dir)
			opts.Durability.CheckpointEvery = 1
			opts.Durability.CompactAfter = 1
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			f, err := p.Feed(FeedOptions{})
			if err != nil {
				t.Fatal(err)
			}
			batches := durabilityBatches(8)
			results := make([]<-chan construct.BatchResult, len(batches))
			for i, b := range batches {
				results[i] = f.Submit(b)
			}
			// Close immediately: the feed backlog is (very likely) still in
			// flight and checkpoints are queueing compactions behind it.
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			// Every batch submitted before Close must have fully committed:
			// Close drains, it never drops.
			for i, ch := range results {
				if res := <-ch; res.Err != nil {
					t.Fatalf("batch %d failed across Close: %v", i, res.Err)
				}
			}
			want := durableState{
				backendState: backendState{
					KG:      p.KG.Graph.Triples(),
					Replica: p.GraphReplica.Triples(),
					LastLSN: p.Engine.Log.LastLSN(),
				},
				Links: p.KG.LinksSnapshot(),
			}
			got := reopenState(t, cfg, dir)
			got.Entities, got.Search = nil, nil // closed stores can't be dumped for want
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reopen after in-flight Close differs:\n  got:  lsn=%d kg=%d replica=%d links=%d\n  want: lsn=%d kg=%d replica=%d links=%d",
					got.LastLSN, len(got.KG), len(got.Replica), len(got.Links),
					want.LastLSN, len(want.KG), len(want.Replica), len(want.Links))
			}
		})
	}
}

// reopenWrites is one round of single-delta writes on the "src" source of
// durabilityBatches: volatile churn, a whole-entity update, a delete that
// may leave its KG entity with no contribution, and the re-add of the
// deleted record, in the interleaving a serving workload produces.
func reopenWrites(round int) [][]ingest.Delta {
	var out [][]ingest.Delta
	for i := 0; i < 6; i++ {
		at := round*6 + i
		e := workload.SourceSpec{Name: "src", Count: 1, Offset: at, RichFacts: 2, Seed: int64(500 + at)}.Entities()[0]
		vol := triple.NewEntity(e.ID)
		vol.Add(triple.New("", "popularity", triple.Float(float64(at))).WithSource("src", 0.9))
		out = append(out,
			[]ingest.Delta{{Source: "src", Volatile: []*triple.Entity{vol}}},
			[]ingest.Delta{{Source: "src", Updated: []*triple.Entity{e}}},
			[]ingest.Delta{{Source: "src", Deleted: []triple.EntityID{e.ID}}},
			[]ingest.Delta{{Source: "src", Added: []*triple.Entity{e.Clone()}}},
		)
	}
	return out
}

// TestWritesAfterReopenReachReplica: every write a standing feed commits on
// a platform reopened from a checkpoint must reach the graph replica, on both
// durable layouts with one and two partitions, across several
// close/reopen rounds with periodic checkpoints and compaction running.
func TestWritesAfterReopenReachReplica(t *testing.T) {
	type config = struct {
		name    string
		parts   int
		backend string
	}
	for _, cfg := range []config{{"hybrid", 1, ""}, {"hybrid-partitioned", 2, ""}, {"disk", 1, "disk"}, {"disk-partitioned", 2, "disk"}} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			opts := durableOptions(cfg, t.TempDir())
			opts.Durability.CheckpointEvery = 5
			opts.Durability.CompactAfter = 1
			p, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range durabilityBatches(4) {
				if _, err := p.ConsumeDeltas(b); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 4; round++ {
				if _, err := p.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if p, err = Open(opts); err != nil {
					t.Fatal(err)
				}
				p.RefreshServing()
				f, err := p.Feed(FeedOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var results []<-chan construct.BatchResult
				for _, b := range reopenWrites(round) {
					results = append(results, f.Submit(b))
				}
				for i, ch := range results {
					if res := <-ch; res.Err != nil {
						t.Fatalf("round %d write %d: %v", round, i, res.Err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if got, want := p.GraphReplica.Triples(), p.KG.Graph.Triples(); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: graph replica (%d triples) diverged from the KG (%d triples) after reopen", round, len(got), len(want))
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
