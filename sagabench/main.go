// Command sagabench is Saga's end-to-end benchmark. It drives the public
// platform API — core.Open/Feed/RefreshServing/Checkpoint/Close, the /v1
// handler of serve.New over loopback HTTP, live.Constructor.Consume and
// ingest.ComputeDelta — through one of three workloads, checks every output
// it reads, and prints one JSON result line.
//
//	sagabench -workload build|serve_fresh|cold_start -seed N -seconds S -trace 0|1
//
// Every workload runs three rounds. Each round sets up a fresh platform and
// runs the same three measured phases, in this order, on the state set-up
// built; the workloads differ in configuration and in how the run's seconds
// are shared between the phases:
//
//   - serve: open-loop /v1 reads, stable writes and live events at fixed
//     rates, with a freshness checker confirming each write on /v1;
//   - ingest: a closed-loop standing feed of ComputeDelta rounds, then an
//     explicit checkpoint;
//   - restart: Close, then Open → RefreshServing → first correct /v1/query
//     → Close, repeated.
//
// Serving comes first so the state it serves does not depend on how many
// rounds the time-bound ingest phase got through.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics, spans are recorded around every call into
// the platform, and the spans plus a self-time table are written under
// -out/trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"saga/internal/core"
	"saga/internal/ontology"
)

// spec is one workload's configuration.
type spec struct {
	name string
	// disk selects the disk storage backend; otherwise the platform runs the
	// hybrid layout (memory stores, durable log/staging/checkpoints).
	disk       bool
	partitions int
	// richFacts is the number of multi-valued facts per source entity.
	richFacts int
	// seedRounds ingest rounds run at set-up: the sourcesPerType add rounds,
	// plus update and churn rounds that age the history.
	seedRounds int
	// checkpointEvery and compactAfter set the durability cadence.
	checkpointEvery, compactAfter int
	// Shares of -seconds given to the ingest, serve and restart phases.
	ingestShare, serveShare, restartShare float64
}

// Open-loop rates of the serve phase, per second, and the latency limits
// behind the miss fractions, fixed from seed measurements on a 2-core
// x86-64 VM (sagabench/README.md has the figures). The read lane saturates
// between 1500 and 2500 reads/s, 300 writes/s and 1000 events/s are
// absorbed without failures, so each stream runs at a fifth or less of
// that. readLimit is above the p99 send-to-response time of every /v1
// route (3 to 5 ms), so a miss is a read held up beyond the slowest 1% of
// service times: in practice one a refresh stalled. freshLimit is above the
// refresh cadence plus a slow refresh, so a write servable after the next
// refresh is never a miss.
const (
	readRate   = 300
	writeRate  = 50
	eventRate  = 20
	readLimit  = 5 * time.Millisecond
	freshLimit = 1500 * time.Millisecond
)

// The shares keep every phase long enough for its metrics to be steady,
// since every workload reports every end-to-end metric; each workload gives
// its own layers the largest share it can.
var workloads = map[string]spec{
	// Construction-heavy: closed-loop feed sessions over a 2-partition hybrid
	// layout with periodic checkpoints and compaction.
	"build": {
		name: "build", partitions: 2, richFacts: 6,
		seedRounds:      sourcesPerType,
		checkpointEvery: 64, compactAfter: 4000,
		ingestShare: 0.35, serveShare: 0.5, restartShare: 0.15,
	},
	// Reads and writes share the serving layer: a seeded single-pipeline KG
	// with two live replicas, most of the run under the open-loop streams.
	"serve_fresh": {
		name: "serve_fresh", partitions: 1, richFacts: 4,
		seedRounds:      sourcesPerType + churnRounds + 1,
		checkpointEvery: 64, compactAfter: 4000,
		ingestShare: 0.2, serveShare: 0.6, restartShare: 0.2,
	},
	// Recovery-heavy: a long aged history on the disk backend, restarted
	// over and over.
	"cold_start": {
		name: "cold_start", disk: true, partitions: 1, richFacts: 6,
		seedRounds:      sourcesPerType + 6*(churnRounds+1),
		checkpointEvery: 8, compactAfter: 600,
		ingestShare: 0.2, serveShare: 0.4, restartShare: 0.4,
	},
}

// rounds is how many times set-up and the three phases run, each round on
// a fresh platform with a third of the run's seconds; setup_s is the median
// set-up. The host's noise comes in spells of several seconds: spread over
// rounds, a spell hits part of every metric's samples instead of all of one
// phase, and the medians ride it out.
const rounds = 3

func (w spec) options(dir string) core.Options {
	o := core.Options{
		// One construction worker per core, the default when GOMAXPROCS is
		// not raised (see main).
		Construction: core.ConstructionOptions{Partitions: w.partitions, Workers: runtime.NumCPU()},
		Durability:   core.DurabilityOptions{CheckpointEvery: w.checkpointEvery, CompactAfter: w.compactAfter},
		Serving:      core.ServingOptions{LiveReplicas: 2},
	}
	if w.disk {
		o.Storage = core.StorageOptions{Backend: "disk", DataDir: dir}
	} else {
		o.Durability.Dir = dir
	}
	return o
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: build, serve_fresh or cold_start")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run data, results and traces")
	flag.Parse()
	// The load generator shares this process's Go scheduler with the
	// platform. With one P per core, a read goroutine woken at its due time
	// can wait a whole preemption slice behind platform goroutines; twice
	// the Ps hand that wait to the OS scheduler, as for a separate client.
	// The platform's own parallelism stays at one worker per core: options
	// sets Construction.Workers, which also sizes the worker budget.
	runtime.GOMAXPROCS(2 * runtime.NumCPU())
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "sagabench: unknown workload %q or bad -seconds\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sagabench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sagabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload sets up, runs the three phases and assembles the result.
func runWorkload(w spec, seed int64, total time.Duration, traced bool, out string) (result, error) {
	base, err := filepath.Abs(filepath.Join(out, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(base)
	r := &run{w: w, seed: seed, tr: newTracer(traced), ont: ontology.Default(), e2e: map[string]metric{}, layer: map[string]metric{}}

	phases := []struct {
		name  string
		share float64
		fn    func(time.Duration) error
	}{
		{"serve", w.serveShare, r.servePhase},
		{"ingest", w.ingestShare, r.ingestPhase},
		{"restart", w.restartShare, r.restartPhase},
	}
	var setups []float64
	for r.round = 0; r.round < rounds; r.round++ {
		dir := filepath.Join(base, fmt.Sprintf("round%d", r.round))
		t0 := time.Now()
		if err := r.setup(dir); err != nil {
			return result{}, fmt.Errorf("round %d, setup: %w", r.round+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		for _, ph := range phases {
			budget := time.Duration(ph.share * float64(total) / rounds)
			if err := ph.fn(budget); err != nil {
				return result{}, fmt.Errorf("round %d, %s phase: %w", r.round+1, ph.name, err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.serveMetrics()
	r.ingestMetrics()
	r.restartMetrics()

	res := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "sagabench: check failed: %s\n", e)
	}
	if traced {
		res.Metrics = r.layer
		if err := r.writeTrace(out); err != nil {
			return result{}, err
		}
	} else {
		res.Metrics = r.e2e
		if err := saveUntraced(out, w.name, seed, r.e2e); err != nil {
			return result{}, err
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return res, nil
}

// selfLayers are the layers whose summed span self time a traced run reports.
var selfLayers = []string{"ingest", "construct", "core", "serve", "live", "kgq"}

// saveUntraced keeps an untraced run's end-to-end metrics so a traced run of
// the same workload can report its tracing overhead.
func saveUntraced(out, name string, seed int64, m map[string]metric) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

// writeTrace writes the spans and the self-time table, and prints the table
// and the tracing overhead against the newest untraced run of the workload.
func (r *run) writeTrace(out string) error {
	dir := filepath.Join(out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", r.w.name, r.seed))
	if err := writeSpans(stem+".spans.jsonl", r.tr.spans); err != nil {
		return err
	}
	rows := selfTimes(r.tr.spans)
	f, err := os.Create(stem + ".self.txt")
	if err != nil {
		return err
	}
	printSelfTable(f, rows)
	if err := f.Close(); err != nil {
		return err
	}
	printSelfTable(os.Stdout, rows)
	for _, l := range selfLayers {
		r.layer[l+".self_ms"] = metric{0, "ms"}
	}
	for _, row := range rows {
		key := layerOf(row.Name) + ".self_ms"
		if m, ok := r.layer[key]; ok {
			r.layer[key] = metric{m.Value + row.SelfMS, "ms"}
		}
	}
	fmt.Printf("spans: %d written to %s.spans.jsonl\n", len(r.tr.spans), stem)
	base := newestUntraced(filepath.Join(out, "results"), r.w.name, r.seed)
	if base == nil {
		fmt.Println("tracing overhead: no untraced run of this workload found")
		return nil
	}
	names := make([]string, 0, len(r.e2e))
	for k := range r.e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %14s %14s %10s\n", "tracing overhead", "untraced", "traced", "diff")
	for _, k := range names {
		b, ok := base[k]
		if !ok {
			continue
		}
		t := r.e2e[k].Value
		diff := math.NaN()
		if b.Value != 0 {
			diff = (t - b.Value) / b.Value
		}
		fmt.Printf("%-24s %14.4f %14.4f %+9.1f%%\n", k, b.Value, t, 100*diff)
	}
	return nil
}

// newestUntraced loads the untraced result of the same seed, or else the
// newest untraced result of the workload.
func newestUntraced(dir, name string, seed int64) map[string]metric {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if _, err := os.Stat(path); err != nil {
		matches, _ := filepath.Glob(filepath.Join(dir, name+"-seed*.json"))
		var newest time.Time
		path = ""
		for _, m := range matches {
			if st, err := os.Stat(m); err == nil && st.ModTime().After(newest) {
				newest, path = st.ModTime(), m
			}
		}
		if path == "" {
			return nil
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m map[string]metric
	if json.Unmarshal(b, &m) != nil {
		return nil
	}
	return m
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
