package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"saga/internal/construct"
	"saga/internal/core"
	"saga/internal/ingest"
	"saga/internal/live"
	"saga/internal/live/kgq"
	"saga/internal/serve"
	"saga/internal/triple"
	"saga/internal/workload"
)

// server is the /v1 handler served over loopback.
type server struct {
	srv  *http.Server
	done chan error
	url  string
}

func startServer(p *core.Platform) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: serve.New(p, serve.Options{}).Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// newClient caps connections at the load goroutine count.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// get fetches one URL and returns status and body.
func get(c *http.Client, u string) (int, []byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// queryResponse mirrors /v1/query's payload.
type queryResponse struct {
	IDs    []triple.EntityID `json:"ids"`
	Values []string          `json:"values"`
}

// searchResponse mirrors /v1/search's payload.
type searchResponse struct {
	Hits []struct {
		ID string `json:"id"`
	} `json:"hits"`
}

// genServe generates the serve phase's merged schedule from the seed and the
// state /v1 serves now: Zipf-skewed reads over entities no write deletes,
// one-source writes (volatile churn and stable updates on disjoint entity
// pools, deletes of entities only one source contributes), and live events.
func (r *run) genServe(budget time.Duration) ([]op, int, error) {
	p, in := r.p, r.in
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(r.round)*104729 + 17))

	// Contributions per KG entity, to find single-source entities.
	contrib := make(map[triple.EntityID]int)
	type srcEnt struct {
		e    *triple.Entity
		src  *source
		kgID triple.EntityID
	}
	var persons []srcEnt
	for _, srcs := range in.types {
		for _, src := range srcs {
			for _, e := range src.current {
				kg, ok := p.KG.Lookup(e.ID)
				if !ok || !p.KG.Graph.Has(kg) {
					continue // a dangling link, counted by the ingest check
				}
				contrib[kg]++
				local := e.ID.Local()
				if strings.HasPrefix(local, "city") || strings.HasSuffix(local, "-dup") {
					continue
				}
				persons = append(persons, srcEnt{e, src, kg})
			}
		}
	}
	rng.Shuffle(len(persons), func(i, j int) { persons[i], persons[j] = persons[j], persons[i] })
	var deletes, volatiles, updates []srcEnt
	taken := make(map[triple.EntityID]bool)
	for _, s := range persons {
		if taken[s.kgID] {
			continue
		}
		taken[s.kgID] = true
		switch {
		case contrib[s.kgID] == 1:
			deletes = append(deletes, s)
		case len(volatiles) <= len(updates):
			volatiles = append(volatiles, s)
		default:
			updates = append(updates, s)
		}
	}
	// Reads never target an entity a write deletes or updates: an update can
	// change which name fusion keeps, and name lookups must stay answerable.
	unreadable := make(map[triple.EntityID]bool)
	for _, s := range updates {
		unreadable[s.kgID] = true
	}

	writeTimes := poissonTimes(rng, writeRate, budget)
	var writes []*write
	vz := workload.NewZipf(rng, 1.2, len(volatiles))
	uz := workload.NewZipf(rng, 1.2, len(updates))
	for i := range writeTimes {
		n := float64(i + 1)
		switch writeMix[i%len(writeMix)] {
		case writeVolatile:
			s := volatiles[vz.Draw()]
			e := triple.NewEntity(s.e.ID)
			e.Add(triple.New("", triple.PredType, s.e.First(triple.PredType)).WithSource(s.src.spec.Name, 0.9))
			e.Add(triple.New("", triple.PredSourceID, s.e.First(triple.PredSourceID)).WithSource(s.src.spec.Name, 0.9))
			e.Add(triple.New("", "popularity", triple.Float(1000+n)).WithSource(s.src.spec.Name, 0.9))
			writes = append(writes, &write{kind: writeVolatile, kgID: s.kgID, value: 1000 + n,
				delta: ingest.Delta{Source: s.src.spec.Name, Volatile: []*triple.Entity{e}}})
		case writeUpdate:
			s := updates[uz.Draw()]
			e := triple.NewEntity(s.e.ID)
			for _, t := range s.e.Triples {
				if !r.ont.IsVolatile(t.Predicate) {
					e.Add(t)
				}
			}
			e.Add(triple.New("", "rev", triple.Float(n)).WithSource(s.src.spec.Name, 0.9))
			writes = append(writes, &write{kind: writeUpdate, kgID: s.kgID, value: n,
				delta: ingest.Delta{Source: s.src.spec.Name, Updated: []*triple.Entity{e}}})
		case writeDelete:
			if len(deletes) == 0 {
				return nil, 0, fmt.Errorf("delete pool exhausted after %d writes", i)
			}
			s := deletes[0]
			deletes = deletes[1:]
			unreadable[s.kgID] = true
			// The source still publishes the entity: forget it in the
			// source's snapshot, so the next ingest round adds it back.
			delete(s.src.prev, snapshotKey(s.e))
			writes = append(writes, &write{kind: writeDelete, kgID: s.kgID,
				delta: ingest.Delta{Source: s.src.spec.Name, Deleted: []triple.EntityID{s.e.ID}}})
		}
	}

	// Reads: entities /v1 serves now that no write deletes, by type.
	snap := p.Live.Current()
	var targets []triple.EntityID
	for t := range in.types {
		for _, id := range snap.ByType(fmt.Sprintf("kind%02d", t)) {
			if !unreadable[id] && snap.GetShared(id).Name() != "" && contrib[id] > 0 {
				targets = append(targets, id)
			}
		}
	}
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("no read targets")
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	rz := workload.NewZipf(rng, 1.1, len(targets))
	readTimes := poissonTimes(rng, readRate, budget)
	var reads []*read
	for range readTimes {
		id := targets[rz.Draw()]
		e := snap.GetShared(id)
		typ, name := e.Type(), e.Name()
		var rd read
		switch x := rng.Intn(20); {
		case x < 8:
			q := fmt.Sprintf(`entity(type=%q, name=%q) | attr("name")`, typ, name)
			rd = read{kind: readLookup, path: "/v1/query?q=" + url.QueryEscape(q), target: id, name: name}
		case x < 11:
			q := fmt.Sprintf(`entity(type=%q) | rank() | limit(%d) | attr("name")`, typ, rankLimit)
			rd = read{kind: readRank, path: "/v1/query?q=" + url.QueryEscape(q)}
		case x < 16:
			rd = read{kind: readEntity, path: "/v1/entity?id=" + url.QueryEscape(string(id)), target: id}
		default:
			rd = read{kind: readSearch, path: "/v1/search?q=" + url.QueryEscape(name) + "&k=10", target: id, name: name}
		}
		reads = append(reads, &rd)
	}

	eventTimes := poissonTimes(rng, eventRate, budget)
	ops := make([]op, 0, len(reads)+len(writes)+len(eventTimes))
	for i, t := range readTimes {
		ops = append(ops, op{due: t, read: reads[i]})
	}
	for i, t := range writeTimes {
		ops = append(ops, op{due: t, write: writes[i]})
	}
	for i, t := range eventTimes {
		ops = append(ops, op{due: t, event: &eventOp{source: "scores", id: fmt.Sprintf("game%d", i%50), score: float64(rng.Intn(120))}})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	for i := range ops {
		ops[i].id = uint64(i + 1)
	}
	return ops, len(writes), nil
}

// pendingWrite is a submitted write awaiting confirmation on /v1.
type pendingWrite struct {
	w         *write
	idx       int
	due       time.Time
	submitted time.Time
	ch        <-chan construct.BatchResult
	sp        openSpan
}

// checker confirms each write over /v1 and calls RefreshServing when a
// committed write is not visible yet.
type checker struct {
	r      *run
	client *http.Client
	url    string
	parent uint64
	limit  time.Duration

	samples     []sample
	staleDelete int
	polls       int
	confirmed   int
	refreshes   int
	failed      int
}

// refreshGap is the least time between the starts of two refreshes the
// checker calls. A refresh copies the whole KG into the live replicas: under
// the read stream it takes about 150 ms at the median, so refreshes keep a
// core busy about a third of the serve phase. Back to back they would keep
// it busy all the time; one a second left so few refreshes in a run that
// read_p99_ms swung with each one.
const refreshGap = 500 * time.Millisecond

// staleGrace is how long after a covering refresh a write may still be
// invisible: /v1 serves snapshots up to a few milliseconds old.
const staleGrace = 50 * time.Millisecond

func (c *checker) loop(intake <-chan *pendingWrite, done chan<- struct{}) {
	defer close(done)
	var pending []*pendingWrite
	var lastRefresh time.Time
	open := true
	accept := func(pw *pendingWrite) {
		res := <-pw.ch
		c.r.tr.end(pw.sp)
		if res.Err != nil {
			c.failed++
			c.samples = append(c.samples, sample{ms: -1, miss: true})
			c.r.fail("write %d (%s): %v", pw.idx, pw.w.kind, res.Err)
			return
		}
		c.r.noteLinks(res.Stats)
		if pw.w.kind == writeDelete && c.r.p.KG.Graph.Has(pw.w.kgID) {
			c.r.fail("write %d: KG entity %s still present after its only source deleted it", pw.idx, pw.w.kgID)
		}
		pending = append(pending, pw)
	}
	drain := func() {
		for open {
			select {
			case pw, ok := <-intake:
				if !ok {
					open = false
					return
				}
				accept(pw)
			default:
				return
			}
		}
	}
	for open || len(pending) > 0 {
		if len(pending) == 0 {
			pw, ok := <-intake
			if !ok {
				open = false
				continue
			}
			accept(pw)
		}
		drain()
		// Poll first: a write /v1 already serves needs no refresh.
		waiting := pending[:0]
		for _, pw := range pending {
			if !c.confirm(pw) {
				waiting = append(waiting, pw)
			}
		}
		pending = waiting
		if len(pending) == 0 {
			continue
		}
		if wait := refreshGap - time.Since(lastRefresh); wait > 0 {
			time.Sleep(wait)
			drain()
		}
		// Each write still waiting is polled again after the first refresh
		// that started after it was submitted, and once more after
		// staleGrace if it was not visible yet.
		lastRefresh = time.Now()
		c.r.refresh(c.parent)
		c.refreshes++
		var covered, later, retry []*pendingWrite
		for _, pw := range pending {
			if pw.submitted.Before(lastRefresh) {
				covered = append(covered, pw)
			} else {
				later = append(later, pw)
			}
		}
		for _, pw := range covered {
			if !c.confirm(pw) {
				retry = append(retry, pw)
			}
		}
		if len(retry) > 0 {
			time.Sleep(staleGrace)
		}
		for _, pw := range retry {
			if c.confirm(pw) {
				continue
			}
			// A refresh that started after the write committed did not make
			// it servable: it never will be without another write.
			c.samples = append(c.samples, sample{ms: -1, miss: true})
			if pw.w.kind == writeDelete {
				c.staleDelete++
			} else {
				c.r.fail("write %d (%s on %s) not servable after a covering refresh", pw.idx, pw.w.kind, pw.w.kgID)
			}
		}
		pending = later
	}
}

// confirm polls /v1 for a write and records its freshness once visible.
func (c *checker) confirm(pw *pendingWrite) bool {
	if !c.visible(pw) {
		return false
	}
	lat := time.Since(pw.due)
	c.samples = append(c.samples, sample{ms: ms(lat), miss: lat > c.limit})
	c.confirmed++
	return true
}

// visible reports whether /v1 serves the write's effect.
func (c *checker) visible(pw *pendingWrite) bool {
	c.polls++
	sp := c.r.tr.begin("serve.entity", c.parent, uint64(pw.idx))
	status, body, err := get(c.client, c.url+"/v1/entity?id="+url.QueryEscape(string(pw.w.kgID)))
	c.r.tr.end(sp)
	if err != nil {
		c.r.fail("freshness poll: %v", err)
		return false
	}
	if pw.w.kind == writeDelete {
		return status == http.StatusNotFound
	}
	if status != http.StatusOK {
		c.r.fail("freshness poll %s: status %d", pw.w.kgID, status)
		return false
	}
	var e triple.Entity
	if err := json.Unmarshal(body, &e); err != nil || e.ID != pw.w.kgID {
		c.r.fail("freshness poll %s: bad payload (%v)", pw.w.kgID, err)
		return false
	}
	pred := "rev"
	if pw.w.kind == writeVolatile {
		pred = "popularity"
	}
	for _, v := range e.Get(pred) {
		if v.Float64() >= pw.w.value {
			return true
		}
	}
	return false
}

// opStats are one load goroutine's measurements.
type opStats struct {
	reads                []sample
	lateMS               []float64
	routeMS              map[string][]float64
	non200               int
	events, eventsFailed int
	writes               int
}

// sample is one timed operation: its latency in ms (-1 when it never
// completed), whether it missed its limit and, for reads, its due offset
// from the phase start.
type sample struct {
	ms   float64
	miss bool
	due  time.Duration
}

// latency returns the q-quantile of the completed samples' latencies.
func latency(ss []sample, q float64) float64 {
	var xs []float64
	for _, s := range ss {
		if s.ms >= 0 {
			xs = append(xs, s.ms)
		}
	}
	return quantile(xs, q)
}

// readWindow is the length of the windows the tail read metrics are taken
// over.
const readWindow = 2 * time.Second

// windows splits samples by due time into equal windows of about
// readWindow over d.
func windows(ss []sample, d time.Duration) [][]sample {
	n := max(1, int(d/readWindow))
	ws := make([][]sample, n)
	for _, s := range ss {
		i := min(n-1, int(int64(s.due)*int64(n)/int64(d)))
		ws[i] = append(ws[i], s)
	}
	return ws
}

// missFrac is the share of samples that missed their limit.
func missFrac(ss []sample) float64 {
	n := 0
	for _, s := range ss {
		if s.miss {
			n++
		}
	}
	return ratio(n, len(ss))
}

// maxLoaders caps the load goroutines (and connections) of the serve phase,
// so the offered load does not depend on the machine's core count beyond it.
const maxLoaders = 2

// serveTotals accumulates the serve segments of every round.
type serveTotals struct {
	reads, fresh             []sample
	readP99s, readMisses     []float64 // one per read window
	lateMS                   []float64
	routeMS                  map[string][]float64
	non200, writes, polls    int
	staleDeletes, refreshes  int
	confirmed                int
	versions                 uint64
	elapsed                  time.Duration
	replicaServed            []uint64
	resultHits, resultMisses uint64
	planCacheLen, liveLen    int
	parseUS, planUS, execUS  []float64
	encodeUS                 []float64
}

// servePhase runs the open-loop streams for budget, with the freshness
// checker confirming every write, and checks every read.
func (r *run) servePhase(budget time.Duration) error {
	p := r.p
	runtime.GC() // set-up's garbage is not this phase's cost
	ph := r.tr.begin("phase.serve", 0, 0)
	r.refresh(ph.id)
	srv, err := startServer(p)
	if err != nil {
		return err
	}
	loaders := min(maxLoaders, runtime.NumCPU())
	client := newClient(loaders)
	defer client.CloseIdleConnections()
	ops, nWrites, err := r.genServe(budget)
	if err != nil {
		srv.stop()
		return fmt.Errorf("generate: %w", err)
	}
	f, err := p.Feed(core.FeedOptions{})
	if err != nil {
		srv.stop()
		return err
	}
	ver0 := p.Live.Version()
	chk := &checker{r: r, client: client, url: srv.url, parent: ph.id, limit: freshLimit}
	intake := make(chan *pendingWrite, nWrites)
	checked := make(chan struct{})
	go chk.loop(intake, checked)

	// Load goroutines: with two or more, one runs the write and event
	// streams (in-process calls that can block for milliseconds) and the rest
	// share the reads round-robin, so a slow write never delays a read's
	// start; with one, it runs the merged schedule. Each operation starts at
	// its due time (at once when late) and its latency counts from there.
	var lanes [][]op
	if loaders == 1 {
		lanes = [][]op{ops}
	} else {
		lanes = make([][]op, loaders)
		reads := 0
		for _, o := range ops {
			if o.read == nil {
				lanes[0] = append(lanes[0], o)
				continue
			}
			lanes[1+reads%(loaders-1)] = append(lanes[1+reads%(loaders-1)], o)
			reads++
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	stats := make([]opStats, len(lanes))
	var wg sync.WaitGroup
	for g, lane := range lanes {
		wg.Add(1)
		go func(st *opStats, lane []op) {
			defer wg.Done()
			st.routeMS = make(map[string][]float64)
			for _, o := range lane {
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				begin := time.Now()
				st.lateMS = append(st.lateMS, ms(begin.Sub(due)))
				switch {
				case o.read != nil:
					r.doRead(client, srv.url, o, due, begin, ph.id, st)
				case o.write != nil:
					st.writes++
					sp := r.tr.begin("construct.batch", ph.id, o.id)
					ch := f.Submit([]ingest.Delta{o.write.delta})
					intake <- &pendingWrite{w: o.write, idx: int(o.id), due: due, submitted: time.Now(), ch: ch, sp: sp}
				case o.event != nil:
					st.events++
					ev := live.Event{Source: o.event.source, Type: "game", ID: o.event.id,
						Facts: map[string]triple.Value{"home_score": triple.Float(o.event.score), "status": triple.String("in_progress")}}
					sp := r.tr.begin("live.consume", ph.id, o.id)
					id, err := p.LiveConstructor.Consume(ev)
					r.tr.end(sp)
					if err != nil {
						st.eventsFailed++
					} else if id != live.LiveID(ev.Source, ev.ID) {
						r.fail("live event %s: returned id %s", ev.ID, id)
					}
				}
			}
		}(&stats[g], lane)
	}
	wg.Wait()
	close(intake)
	<-checked
	elapsed := time.Since(start)
	closeErr := f.Close()

	t := &r.sv
	if t.routeMS == nil {
		t.routeMS = map[string][]float64{}
	}
	var reads []sample
	var agg opStats
	for _, st := range stats {
		reads = append(reads, st.reads...)
		t.lateMS = append(t.lateMS, st.lateMS...)
		for k, v := range st.routeMS {
			t.routeMS[k] = append(t.routeMS[k], v...)
		}
		agg.non200 += st.non200
		agg.events += st.events
		agg.eventsFailed += st.eventsFailed
		agg.writes += st.writes
	}
	r.count(len(reads)+agg.writes+agg.events, agg.non200+agg.eventsFailed+chk.failed)
	t.reads = append(t.reads, reads...)
	for _, w := range windows(reads, budget) {
		t.readP99s = append(t.readP99s, latency(w, 0.99))
		t.readMisses = append(t.readMisses, missFrac(w))
	}
	t.fresh = append(t.fresh, chk.samples...)
	t.non200 += agg.non200
	t.writes += nWrites
	t.polls += chk.polls
	t.staleDeletes += chk.staleDelete
	t.refreshes += chk.refreshes
	t.confirmed += chk.confirmed
	t.versions += p.Live.Version() - ver0
	t.elapsed += elapsed
	t.liveLen = p.Live.Len()
	if closeErr != nil {
		srv.stop()
		return fmt.Errorf("feed close: %w", closeErr)
	}

	// Serving counters from the API itself.
	var vs struct {
		Serving struct {
			ReplicaServed []uint64 `json:"replica_served"`
			PlanCacheLen  int      `json:"plan_cache_len"`
			ResultHits    uint64   `json:"result_hits"`
			ResultMisses  uint64   `json:"result_misses"`
		} `json:"serving"`
	}
	status, body, err := get(client, srv.url+"/v1/stats")
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &vs) != nil {
		r.fail("/v1/stats: status %d, %v", status, err)
	}
	for i, n := range vs.Serving.ReplicaServed {
		if i == len(t.replicaServed) {
			t.replicaServed = append(t.replicaServed, 0)
		}
		t.replicaServed[i] += n
	}
	t.resultHits += vs.Serving.ResultHits
	t.resultMisses += vs.Serving.ResultMisses
	t.planCacheLen = vs.Serving.PlanCacheLen
	if r.tr.on {
		r.sideMeasure(ph.id, ops)
	}
	r.tr.end(ph)
	return srv.stop()
}

// serveMetrics reports the serve segments of every round.
func (r *run) serveMetrics() {
	t := &r.sv
	E, L := r.e2e, r.layer
	E["read_p50_ms"] = metric{latency(t.reads, 0.5), "ms"}
	// Medians over the read windows of every round: a slow spell of the
	// host moves the windows it covers, not the result.
	E["read_p99_ms"] = metric{median(t.readP99s), "ms"}
	// A per-layer figure, not end-to-end: see sagabench/README.md.
	L["read_miss_frac"] = metric{median(t.readMisses), "fraction"}
	E["fresh_p50_ms"] = metric{latency(t.fresh, 0.5), "ms"}
	E["fresh_p90_ms"] = metric{latency(t.fresh, 0.9), "ms"}
	E["fresh_miss_frac"] = metric{missFrac(t.fresh), "fraction"}
	for _, route := range []string{"query", "entity", "search"} {
		L["serve."+route+"_p50_ms"] = metric{quantile(t.routeMS[route], 0.5), "ms"}
		L["serve."+route+"_p99_ms"] = metric{quantile(t.routeMS[route], 0.99), "ms"}
	}
	L["serve.non200"] = metric{float64(t.non200), "count"}
	L["gen.reads"] = metric{float64(len(t.reads)), "count"}
	L["gen.late_p50_ms"] = metric{quantile(t.lateMS, 0.5), "ms"}
	L["gen.late_p99_ms"] = metric{quantile(t.lateMS, 0.99), "ms"}
	L["gen.late_max_ms"] = metric{quantile(t.lateMS, 1), "ms"}
	L["fresh.polls_per_write"] = metric{ratio(t.polls, t.writes), "polls"}
	L["fresh.stale_deletes"] = metric{float64(t.staleDeletes), "count"}
	L["core.refresh_p50_ms"] = metric{median(r.refreshMS), "ms"}
	L["core.refresh_max_ms"] = metric{quantile(r.refreshMS, 1), "ms"}
	L["core.refreshes"] = metric{float64(t.refreshes), "count"}
	L["core.writes_per_refresh"] = metric{ratio(t.confirmed, t.refreshes), "writes"}
	L["live.entities"] = metric{float64(t.liveLen), "entities"}
	L["live.versions_per_s"] = metric{float64(t.versions) / t.elapsed.Seconds(), "1/s"}
	served := t.replicaServed
	var sum, top uint64
	for _, n := range served {
		sum += n
		top = max(top, n)
	}
	skew := 0.0
	if sum > 0 {
		skew = float64(top) * float64(len(served)) / float64(sum)
	}
	L["live.replica_served_skew"] = metric{skew, "ratio"}
	L["kgq.result_hit_rate"] = metric{ratio(int(t.resultHits), int(t.resultHits+t.resultMisses)), "fraction"}
	L["kgq.plan_cache_len"] = metric{float64(t.planCacheLen), "plans"}
	if r.tr.on {
		L["kgq.parse_us"] = metric{median(t.parseUS), "us"}
		L["kgq.plan_us"] = metric{median(t.planUS), "us"}
		L["kgq.execute_us"] = metric{median(t.execUS), "us"}
		L["serve.encode_us"] = metric{median(t.encodeUS), "us"}
	}
}

// doRead issues one read, times it from its due time and checks the body.
func (r *run) doRead(c *http.Client, base string, o op, due, begin time.Time, parent uint64, st *opStats) {
	rd := o.read
	route := [...]string{"query", "query", "entity", "search"}[rd.kind]
	sp := r.tr.begin("serve."+route, parent, o.id)
	status, body, err := get(c, base+rd.path)
	end := time.Now()
	r.tr.end(sp)
	lat := end.Sub(due)
	st.routeMS[route] = append(st.routeMS[route], ms(end.Sub(begin)))
	ok := err == nil && status == http.StatusOK
	st.reads = append(st.reads, sample{ms: ms(lat), miss: !ok || lat > readLimit, due: o.due})
	if !ok {
		st.non200++
		return
	}
	if msg := checkRead(rd, body); msg != "" {
		r.fail("read %s: %s", rd.path, msg)
	}
}

// checkRead decodes a read's body and checks it against what was asked.
func checkRead(rd *read, body []byte) string {
	switch rd.kind {
	case readLookup, readRank:
		var q queryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			return err.Error()
		}
		if rd.kind == readRank {
			if len(q.IDs) == 0 || len(q.IDs) > rankLimit {
				return fmt.Sprintf("rank returned %d ids, want 1..%d", len(q.IDs), rankLimit)
			}
			return ""
		}
		if !slices.Contains(q.IDs, rd.target) || !slices.Contains(q.Values, rd.name) {
			return fmt.Sprintf("lookup of %q returned %v %q, want %s among them", rd.name, q.IDs, q.Values, rd.target)
		}
	case readEntity:
		var e triple.Entity
		if err := json.Unmarshal(body, &e); err != nil {
			return err.Error()
		}
		if e.ID != rd.target {
			return fmt.Sprintf("entity id %s, want %s", e.ID, rd.target)
		}
	case readSearch:
		var s searchResponse
		if err := json.Unmarshal(body, &s); err != nil {
			return err.Error()
		}
		for _, h := range s.Hits {
			if triple.EntityID(h.ID) == rd.target {
				return ""
			}
		}
		return fmt.Sprintf("search for %q did not return %s", rd.name, rd.target)
	}
	return ""
}

// sideMeasure times parse, plan, execute on a pinned snapshot, and JSON
// encoding for the read mix's queries, with fresh engines so no cache helps.
func (r *run) sideMeasure(parent uint64, ops []op) {
	snap := r.p.Live.Current()
	seen := map[string]bool{}
	for _, o := range ops {
		if o.read == nil || (o.read.kind != readLookup && o.read.kind != readRank) || seen[o.read.path] || len(seen) >= 200 {
			continue
		}
		seen[o.read.path] = true
		u, err := url.Parse(o.read.path)
		if err != nil {
			continue
		}
		text := u.Query().Get("q")
		eng := kgq.NewEngine(r.p.Live)
		sp := r.tr.begin("kgq.parse", parent, 0)
		t0 := time.Now()
		q, err := kgq.Parse(text)
		t1 := time.Now()
		r.tr.end(sp)
		if err != nil {
			r.fail("parse %q: %v", text, err)
			continue
		}
		sp = r.tr.begin("kgq.plan", parent, 0)
		pl, err := eng.Plan(q)
		t2 := time.Now()
		r.tr.end(sp)
		if err != nil {
			r.fail("plan %q: %v", text, err)
			continue
		}
		sp = r.tr.begin("kgq.execute", parent, 0)
		res, err := eng.ExecuteOn(pl, snap)
		t3 := time.Now()
		r.tr.end(sp)
		if err != nil {
			r.fail("execute %q: %v", text, err)
			continue
		}
		sp = r.tr.begin("serve.encode", parent, 0)
		_, err = json.Marshal(queryResponse{IDs: res.IDs, Values: res.Texts()})
		t4 := time.Now()
		r.tr.end(sp)
		if err != nil {
			r.fail("encode %q: %v", text, err)
			continue
		}
		us := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e3 }
		t := &r.sv
		t.parseUS = append(t.parseUS, us(t0, t1))
		t.planUS = append(t.planUS, us(t1, t2))
		t.execUS = append(t.execUS, us(t2, t3))
		t.encodeUS = append(t.encodeUS, us(t3, t4))
	}
}
