package router

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/fault"
	"shahin/internal/rf"
	"shahin/internal/serve"
)

// The fleet workload: fleetFamilies centroid tuples, each expanded into
// fleetVariants in-bin variants (distinct floats, so the explanation
// store treats them as fresh; identical discretised items, so affinity
// pins the family to one replica and the family shares one set of
// pools), streamed interleaved and followed by fleetReplays full repeat
// waves in seed-shuffled order. fleetSamples per explanation against a
// pool build bounded by fleetMaxItemsets makes a recompute on the wrong
// replica cost hundreds of fresh classifier calls, so the routing
// policies separate instead of hiding inside pool noise.
const (
	fleetFamilies    = 12
	fleetVariants    = 6
	fleetReplays     = 2
	fleetReplicas    = 3
	fleetSamples     = 800
	fleetMaxItemsets = 24
)

// fleetFixture is what every replica of every phase shares: census-twin
// statistics, a trained forest, and the request stream with the length
// of its distinct prefix.
type fleetFixture struct {
	st       *dataset.Stats
	forest   *rf.Forest
	workload [][]float64
	distinct int
}

func newFleetFixture(t *testing.T) *fleetFixture {
	t.Helper()
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(2400, 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(1.0/3, rand.New(rand.NewSource(2)))
	st, err := dataset.Compute(train)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(train, rf.Config{NumTrees: 15, MaxDepth: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fx := &fleetFixture{st: st, forest: forest}
	sig := fx.sig

	// Centroids must differ after discretisation, or two families would
	// merge into one ring position with a shared store.
	var centroids [][]float64
	seen := map[uint64]bool{}
	for _, row := range test.Rows(0, fleetFamilies*4) {
		if !seen[sig(row)] && len(centroids) < fleetFamilies {
			seen[sig(row)] = true
			centroids = append(centroids, row)
		}
	}
	if len(centroids) < fleetFamilies {
		t.Fatalf("only %d discretisation-distinct centroids", len(centroids))
	}
	numIdx := st.Schema.NumericIdx()
	var distinct [][]float64
	for v := 0; v < fleetVariants; v++ {
		for _, centroid := range centroids {
			row := centroid
			if v > 0 {
				row = inBinVariant(t, st, centroid, numIdx[(v-1)%len(numIdx)], v)
			}
			if sig(row) != sig(centroid) {
				t.Fatalf("variant %d changed its family's discretised signature", v)
			}
			distinct = append(distinct, row)
		}
	}
	workload := append([][]float64(nil), distinct...)
	rng := rand.New(rand.NewSource(42))
	for w := 0; w < fleetReplays; w++ {
		for _, i := range rng.Perm(len(distinct)) {
			workload = append(workload, distinct[i])
		}
	}
	fx.workload, fx.distinct = workload, len(distinct)
	return fx
}

// sig is the routing signature of a tuple's discretised items.
func (fx *fleetFixture) sig(row []float64) uint64 {
	return Signature(fx.st.ItemizeRow(row, nil))
}

// inBinVariant returns a copy of row with one numeric attribute nudged
// by an epsilon small enough to stay in its discretisation bin.
func inBinVariant(t *testing.T, st *dataset.Stats, row []float64, attr, v int) []float64 {
	t.Helper()
	out := append([]float64(nil), row...)
	base := out[attr]
	scale := math.Max(1, math.Abs(base))
	for _, eps := range []float64{1e-7, -1e-7, 1e-10, -1e-10} {
		cand := base + float64(v)*eps*scale
		if cand != base && st.Bin(attr, cand) == st.Bin(attr, base) {
			out[attr] = cand
			return out
		}
	}
	t.Fatalf("cannot nudge attribute %d value %v without leaving its bin", attr, base)
	return nil
}

// liveReplica is one real shahin-serve stack — warm explainer, server,
// HTTP handler — behind a listener whose address outlives it: kill
// swaps the handler for one that drops every connection, start swaps a
// fresh stack in, so a restart keeps its ring position without
// rebinding a port.
type liveReplica struct {
	fx      *fleetFixture
	ts      *httptest.Server
	handler atomic.Pointer[http.Handler]
	warm    *core.Warm
	srv     *serve.Server
}

func newLiveReplica(t *testing.T, fx *fleetFixture) *liveReplica {
	t.Helper()
	r := &liveReplica{fx: fx}
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		(*r.handler.Load()).ServeHTTP(w, req)
	}))
	t.Cleanup(r.ts.Close)
	r.start(t)
	return r
}

// start builds a fresh warm explainer and serve stack: whatever store
// and pools the previous stack held are gone.
func (r *liveReplica) start(t *testing.T) {
	t.Helper()
	warm, err := core.NewWarm(r.fx.st, r.fx.forest, core.Options{
		Explainer: core.LIME, LIME: lime.Config{NumSamples: fleetSamples},
		Tau: 30, MaxItemsets: fleetMaxItemsets, Seed: 101,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple is a Warm call of its own: with the sequential client
	// below, the order tuples reach it — and with it every invocation
	// count — is the same on every run.
	srv, err := serve.New(warm, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r.warm, r.srv = warm, srv
	h := srv.Handler()
	r.handler.Store(&h)
}

// kill hard-stops the replica: every connection is dropped mid-request
// and nothing is drained, so the store dies with the stack.
func (r *liveReplica) kill() {
	var dead http.Handler = http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	r.handler.Store(&dead)
}

// fleet is n live replicas behind a router whose probes the test
// drives, mounted on a real listener.
type fleet struct {
	replicas []*liveReplica
	rt       *Router
	url      string
}

func newFleet(t *testing.T, fx *fleetFixture, policy Policy, n int) *fleet {
	t.Helper()
	f := &fleet{}
	urls := make([]string, n)
	for i := range urls {
		f.replicas = append(f.replicas, newLiveReplica(t, fx))
		urls[i] = f.replicas[i].ts.URL
	}
	rt, err := New(Config{
		Replicas: urls, Stats: fx.st, Policy: policy,
		ProbeInterval: time.Hour,
		Breaker:       fault.Config{BreakerThreshold: 2, BreakerCooldownCalls: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	f.rt, f.url = rt, front.URL
	return f
}

// post sends one tuple through the router and requires an answer.
func (f *fleet) post(t *testing.T, i int, tuple []float64) ExplainResponse {
	t.Helper()
	out, resp := postTuple(t, f.url, tuple, nil)
	if resp.StatusCode != http.StatusOK || out.Status != "ok" {
		t.Fatalf("request %d: HTTP %d, status %q", i, resp.StatusCode, out.Status)
	}
	return out
}

// streamFleet runs the whole workload through a fresh, healthy fleet
// and returns its aggregate reuse: the fraction of the stream's
// labelling demand (requests × sample budget) that was not paid as
// fresh classifier invocations — met from pooled perturbations or
// stored explanations instead. Per-replica pool builds count against
// it, so sharding only scores well when locality amortises the fleet's
// warm-up.
func streamFleet(t *testing.T, fx *fleetFixture, policy Policy, n int) float64 {
	t.Helper()
	f := newFleet(t, fx, policy, n)
	for i, tuple := range fx.workload {
		if r := f.post(t, i, tuple); r.Route.Degraded {
			t.Fatalf("%s/%d: request %d marked degraded with a fully healthy fleet", policy, n, i)
		}
	}
	var invocations int64
	for _, r := range f.replicas {
		rep := r.warm.Report()
		if rep.Failed != 0 {
			t.Fatalf("%s/%d: %d failed tuples", policy, n, rep.Failed)
		}
		invocations += rep.Invocations
	}
	return 1 - float64(invocations)/float64(len(fx.workload)*fleetSamples)
}

// TestRouterFleet drives the router over real shahin-serve replicas:
// what affinity routing buys, and what a replica's death and return
// cost.
func TestRouterFleet(t *testing.T) {
	fx := newFleetFixture(t)
	t.Run("AffinityReuse", func(t *testing.T) { testFleetAffinityReuse(t, fx) })
	t.Run("KillRestartRecovery", func(t *testing.T) { testFleetKillRestartRecovery(t, fx) })
}

// testFleetAffinityReuse: over three replicas, itemset-affinity routing
// keeps the aggregate reuse a single replica gets (within 10 %) and
// beats content-blind round-robin, which scatters repeats away from the
// replica whose store and pools hold their work.
func testFleetAffinityReuse(t *testing.T, fx *fleetFixture) {
	single := streamFleet(t, fx, PolicyAffinity, 1)
	rr := streamFleet(t, fx, PolicyRoundRobin, fleetReplicas)
	aff := streamFleet(t, fx, PolicyAffinity, fleetReplicas)
	t.Logf("aggregate reuse over %d requests: single %.3f, round-robin %.3f, affinity %.3f", len(fx.workload), single, rr, aff)
	if aff < 0.9*single {
		t.Errorf("affinity reuse %.3f fell below 90%% of single-replica %.3f", aff, single)
	}
	if aff < rr+0.02 {
		t.Errorf("affinity reuse %.3f not measurably better than round-robin %.3f", aff, rr)
	}
}

// testFleetKillRestartRecovery is the failure sequence end to end: a
// replica is killed mid-stream and its tuples fail over in ring order,
// answered and marked degraded, never dropped; it restarts
// empty, warms its store from the peer that covered for it, is
// re-admitted by probes, and then answers the tuples its fallback
// computed during the outage from that restored store, un-degraded,
// without recomputing them — with zero failed tuples on any stack.
func testFleetKillRestartRecovery(t *testing.T, fx *fleetFixture) {
	f := newFleet(t, fx, PolicyAffinity, fleetReplicas)
	ring := NewRing(fleetReplicas, DefaultVNodes)
	victim := ring.Lookup(fx.sig(fx.workload[0]))
	fallback := ring.Sequence(fx.sig(fx.workload[0]), nil)[1]
	victimName, fallbackName := fmt.Sprintf("replica%d", victim), fmt.Sprintf("replica%d", fallback)
	killAt := fx.distinct + (len(fx.workload)-fx.distinct)/2

	for i := 0; i < killAt; i++ {
		if r := f.post(t, i, fx.workload[i]); r.Route.Degraded {
			t.Fatalf("request %d degraded before the kill", i)
		}
	}
	failed := f.replicas[victim].warm.Report().Failed
	f.replicas[victim].kill()

	// Outage: servedBy records which survivor covered each victim-owned
	// tuple.
	servedBy := map[string]string{}
	degraded, failovers := 0, 0
	for i := killAt; i < len(fx.workload); i++ {
		tuple := fx.workload[i]
		r := f.post(t, i, tuple)
		if ring.Lookup(fx.sig(tuple)) != victim {
			if r.Route.Degraded {
				t.Fatalf("request %d degraded though its owner %s is alive", i, r.Route.Replica)
			}
			continue
		}
		if !r.Route.Degraded || r.Route.Replica == victimName {
			t.Fatalf("request %d owned by dead %s: answered by %s, degraded=%v", i, victimName, r.Route.Replica, r.Route.Degraded)
		}
		degraded++
		servedBy[fmt.Sprint(tuple)] = r.Route.Replica
		if r.Route.Failovers > 0 {
			failovers++
		}
	}
	if degraded == 0 || failovers == 0 {
		t.Fatalf("outage saw %d degraded answers and %d transport-error failovers: the workload does not exercise failover", degraded, failovers)
	}

	// Restart empty, restore from the peer that covered, re-admit.
	f.replicas[victim].start(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	restored, err := f.replicas[victim].srv.RestoreFromPeers(ctx, []string{f.replicas[fallback].ts.URL}, http.DefaultClient)
	if err != nil || restored == 0 {
		t.Fatalf("peer snapshot recovery restored %d explanations: %v", restored, err)
	}
	for i := 0; i < 3; i++ {
		f.rt.ProbeNow()
	}

	storeHits := 0
	for i := 0; i < fx.distinct; i++ {
		tuple := fx.workload[i]
		if ring.Lookup(fx.sig(tuple)) != victim {
			continue
		}
		r := f.post(t, i, tuple)
		if r.Route.Replica != victimName || r.Route.Degraded {
			t.Fatalf("replay of request %d routed to %s (degraded=%v), want recovered %s", i, r.Route.Replica, r.Route.Degraded, victimName)
		}
		if servedBy[fmt.Sprint(tuple)] == fallbackName {
			if r.Source != "store" {
				t.Fatalf("replay of request %d answered from %q, want the peer-restored store", i, r.Source)
			}
			storeHits++
		}
	}
	if storeHits == 0 {
		t.Fatal("no replay was answered from the peer-restored snapshot")
	}
	for _, r := range f.replicas {
		failed += r.warm.Report().Failed
	}
	if failed != 0 {
		t.Fatalf("%d failed tuples across the fleet, the restarted replica included", failed)
	}
	t.Logf("outage: %d degraded answers, %d after a transport error; %d explanations restored from %s; %d replays answered from the restored store",
		degraded, failovers, restored, fallbackName, storeHits)
}
