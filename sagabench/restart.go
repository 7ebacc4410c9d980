package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"time"

	"saga/internal/core"
)

// restartTotals accumulates the restart segments of every round.
type restartTotals struct {
	restartMS, openMS   []float64
	recovered, replayed int
	heapMB              float64
}

// restartPhase closes the platform and repeatedly reopens it until budget
// is spent (at least once): Open → RefreshServing → first /v1/query, which
// must match the answer from before the restart, then Close.
func (r *run) restartPhase(budget time.Duration) error {
	p := r.p
	ph := r.tr.begin("phase.restart", 0, 0)
	r.refresh(ph.id)
	probe, err := r.probeQuery()
	if err != nil {
		return err
	}
	want, err := r.queryOnce(p, probe)
	if err != nil {
		return fmt.Errorf("probe before restart: %w", err)
	}
	wantStats := p.KG.Graph.Stats()
	if err := p.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	r.p = nil

	t := &r.rs
	recovered := -1
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC() // the previous restart's garbage is not this one's cost
		sp := r.tr.begin("restart", ph.id, uint64(i+1))
		t0 := time.Now()
		osp := r.tr.begin("core.open", sp.id, uint64(i+1))
		np, err := core.Open(r.w.options(r.dir))
		r.tr.end(osp)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		t.openMS = append(t.openMS, ms(time.Since(t0)))
		r.p = np
		r.refresh(sp.id)
		got, err := r.queryOnce(np, probe)
		d := time.Since(t0)
		r.tr.end(sp)
		r.count(1, 0)
		if err != nil {
			return fmt.Errorf("first query after restart: %w", err)
		}
		t.restartMS = append(t.restartMS, ms(d))
		if !reflect.DeepEqual(got, want) {
			r.fail("restart %d: first query returned %v, want %v", i+1, got, want)
		}
		ds := np.DurabilityStats()
		if recovered >= 0 && ds.RecoveredEntities != recovered {
			r.fail("restart %d: recovered %d entities, earlier restarts %d", i+1, ds.RecoveredEntities, recovered)
		}
		recovered = ds.RecoveredEntities
		t.recovered, t.replayed = ds.RecoveredEntities, ds.ReplayedOps
		if st := np.KG.Graph.Stats(); st != wantStats {
			r.fail("restart %d: KG %+v, want %+v", i+1, st, wantStats)
		}
		t.heapMB = heapMB()
		csp := r.tr.begin("core.close", ph.id, uint64(i+1))
		err = np.Close()
		r.tr.end(csp)
		r.p = nil
		if err != nil {
			return fmt.Errorf("close: %w", err)
		}
		if time.Since(start) >= budget {
			break
		}
	}
	r.tr.end(ph)
	return nil
}

// restartMetrics reports the restart segments of every round.
func (r *run) restartMetrics() {
	t := &r.rs
	r.e2e["restart_p50_ms"] = metric{median(t.restartMS), "ms"}
	r.e2e["live_heap_mb"] = metric{t.heapMB, "MB"}
	r.layer["core.open_ms"] = metric{median(t.openMS), "ms"}
	r.layer["core.replayed_ops"] = metric{float64(t.replayed), "ops"}
	r.layer["core.recovered_entities"] = metric{float64(t.recovered), "entities"}
}

// probeQuery is the restart check's query: a name lookup of the KG's
// lowest-ID kind00 entity whose name no other entity /v1 serves carries
// (stale entities included), so the answer cannot change across a restart.
func (r *run) probeQuery() (string, error) {
	snap := r.p.Live.Current()
	names := make(map[string]int)
	ids := snap.ByType("kind00")
	for _, id := range ids {
		names[snap.GetShared(id).Name()]++
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := r.p.KG.Graph.GetShared(id)
		if e != nil && e.Name() != "" && names[e.Name()] == 1 {
			return fmt.Sprintf(`entity(type="kind00", name=%q) | attr("name")`, e.Name()), nil
		}
	}
	return "", fmt.Errorf("no uniquely named kind00 entity to probe")
}

// queryOnce serves p on loopback and runs one /v1/query.
func (r *run) queryOnce(p *core.Platform, q string) (queryResponse, error) {
	srv, err := startServer(p)
	if err != nil {
		return queryResponse{}, err
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	status, body, err := get(c, srv.url+"/v1/query?q="+url.QueryEscape(q))
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return queryResponse{}, err
	}
	if status != http.StatusOK {
		return queryResponse{}, fmt.Errorf("status %d: %s", status, body)
	}
	var res queryResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return queryResponse{}, err
	}
	if len(res.IDs) == 0 {
		return queryResponse{}, fmt.Errorf("probe %q returned nothing", q)
	}
	return res, nil
}
