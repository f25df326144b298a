package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shahin"
	"shahin/internal/router"
	"shahin/internal/serve"
)

// fleetReplicas and fleetClients fix the serving topology: two replicas
// behind one router, driven by two closed-loop clients (each sends its
// next request only when the previous one is answered).
const (
	fleetReplicas = 2
	fleetClients  = 2
)

// fleet is the full online path in one process: router → serve replicas
// on loopback listeners, each replica a serve.Server over its own warm
// LIME explainer, all at their defaults (10 ms batch window, 64-tuple
// flushes).
type fleet struct {
	warms    []*shahin.Warm
	servers  []*serve.Server
	replicas []*httptest.Server
	rt       *router.Router
	front    *httptest.Server
	entry    string // base URL routed requests are posted to: the router's
	client   *http.Client
}

// fleetPrime is how many tuples each replica's warm explainer is primed
// with before it serves: one full flush (the serving default BatchMax).
const fleetPrime = 64

// newFleet starts replicas serve replicas behind a router. A warm
// explainer mines its pool from its first flush, whatever its size, so
// each replica's explainer is first primed with its own fleetPrime of
// the prime tuples, the way an operator replays yesterday's traffic
// before opening the port. Left to the first requests, the pool hangs
// on which forwards arrive inside the first 10 ms window: warmed by one
// 16-tuple request, replicas mined eight tuples each and classifier
// calls per explanation spread 55 % between seeds (range 100–300).
func (r *run) newFleet(replicas int, prime [][]float64) (*fleet, error) {
	f := &fleet{client: &http.Client{Timeout: 2 * time.Minute}}
	urls := make([]string, replicas)
	for i := range urls {
		warm, err := shahin.NewWarm(r.env.stats, r.cls, r.options(shahin.LIME), 0)
		if err != nil {
			return nil, err
		}
		mine := prime[i*fleetPrime%len(prime):]
		res, err := warm.ExplainAll(mine[:min(fleetPrime, len(mine))])
		if err != nil {
			return nil, fmt.Errorf("priming replica %d: %w", i, err)
		}
		if err := r.checkAll(mine[:len(res.Explanations)], res.Explanations); err != nil {
			return nil, fmt.Errorf("priming replica %d: %w", i, err)
		}
		srv, err := serve.New(warm, serve.Config{})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		f.warms, f.servers, f.replicas = append(f.warms, warm), append(f.servers, srv), append(f.replicas, ts)
		urls[i] = ts.URL
	}
	rt, err := router.New(router.Config{Replicas: urls, Stats: r.env.stats, Policy: router.PolicyAffinity})
	if err != nil {
		return nil, err
	}
	f.rt, f.front = rt, httptest.NewServer(rt.Handler())
	f.entry = f.front.URL
	return f, nil
}

// close stops the fleet front to back and waits for it.
func (f *fleet) close() error {
	f.client.CloseIdleConnections()
	f.front.Close()
	f.rt.Close()
	var first error
	for i, srv := range f.servers {
		f.replicas[i].Close()
		if err := srv.Drain(context.Background()); err != nil && first == nil {
			first = fmt.Errorf("draining replica %d: %w", i, err)
		}
	}
	return first
}

// fleetRequest is one POST /v1/explain/batch, generated from the seed
// before the clock starts.
type fleetRequest struct {
	tuples [][]float64
	exact  bool // carries "explainer": "exactshap" and goes straight to a replica
	body   []byte
}

// encode marshals the request's body.
func (q *fleetRequest) encode() (err error) {
	br := serve.BatchRequest{Tuples: q.tuples}
	if q.exact {
		br.Explainer = "exactshap"
	}
	q.body, err = json.Marshal(br)
	return err
}

// fleetRequests draws the tuples the replicas are primed with, then
// builds n+1 requests: the n timed ones and, last, the warm-up request.
// Per tuple, 30 % are exact repeats of an earlier tuple (Zipf over
// history, recent tuples most popular — the store's hits) and the rest
// fresh; every fifth request asks for exact TreeSHAP. A fresh tuple is a
// row of the explain pool no earlier request carried: were the pool to
// run out and wrap round, the rest of the run would be store hits (an
// 8 000-row pool did after 900 requests, which is why this workload's
// pool has z.fleetPool rows), so running out is an error.
func (r *run) fleetRequests(n int) (prime [][]float64, reqs []fleetRequest, err error) {
	rng := rand.New(rand.NewSource(r.seed))
	fresh := r.env.windows(rng, 1, r.env.pool.NumRows())[0]
	if len(fresh) < fleetReplicas*fleetPrime {
		return nil, nil, fmt.Errorf("explain pool of %d rows cannot prime %d replicas", len(fresh), fleetReplicas)
	}
	prime, fresh = fresh[:fleetReplicas*fleetPrime], fresh[fleetReplicas*fleetPrime:]
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<30)
	var history [][]float64
	reqs = make([]fleetRequest, n+1)
	for i := range reqs {
		q := &reqs[i]
		q.exact = i%5 == 4 && i < n
		for len(q.tuples) < r.z.fleetTuples {
			// The exact path reads neither store nor pool, so its
			// requests need no fresh tuples and leave them to the rest.
			if len(history) > 0 && (q.exact || rng.Float64() < 0.3) {
				q.tuples = append(q.tuples, history[len(history)-1-int(zipf.Uint64()%uint64(len(history)))])
				continue
			}
			if len(fresh) == 0 {
				return nil, nil, fmt.Errorf("explain pool of %d rows exhausted at request %d of %d", r.env.pool.NumRows(), i, n)
			}
			q.tuples = append(q.tuples, fresh[0])
			fresh = fresh[1:]
		}
		history = append(history, q.tuples...)
		if err := q.encode(); err != nil {
			return nil, nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
	}
	return prime, reqs, nil
}

// post sends one request and decodes the answer. Exact requests bypass
// the router, alternating between the replicas, because the router
// drops the explainer field when it re-marshals each tuple (README.md,
// "Known defect"). A refusal (any status but 200) is errNotAnswered.
func (f *fleet) post(i int, q *fleetRequest) (*router.BatchResponse, error) {
	base := f.entry
	if q.exact {
		base = f.replicas[(i/5)%len(f.replicas)].URL
	}
	resp, err := f.client.Post(base+"/v1/explain/batch", "application/json", bytes.NewReader(q.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the log line
		return nil, fmt.Errorf("%w: HTTP %d: %s", errNotAnswered, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out router.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &out, nil
}

// drive sends reqs through the fleet from the closed-loop clients and
// returns each request's latency and decoded answer (nil where the
// request was refused), and the wall time of each successive block of
// z.fleetBlock completions. explanations_per_s is the median over those
// blocks; the latency metrics are medians over blocks of as many
// requests in the order they were issued.
func (r *run) drive(f *fleet, reqs []fleetRequest, clients int) (lat, blocks []time.Duration, answers []*router.BatchResponse, err error) {
	lat = make([]time.Duration, len(reqs))
	done := make([]time.Time, len(reqs))
	answers = make([]*router.BatchResponse, len(reqs))
	refused := make([]error, len(reqs))
	start := now()
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || errs[c] != nil {
					return
				}
				lat[i], errs[c] = r.op(i, func() (err error) {
					answers[i], err = f.post(i, &reqs[i])
					if errors.Is(err, errNotAnswered) {
						refused[i], err = err, nil
					}
					return err
				})
				done[i] = now()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	for _, err := range refused {
		if err != nil {
			r.countFailure(err) //shahinvet:allow errcheck — errNotAnswered is always absorbed into the failure count
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	block := r.z.fleetBlock
	for k := block; k <= len(done); k += block {
		blocks = append(blocks, done[k-1].Sub(start))
		start = done[k-1]
	}
	if blocks == nil { // fewer than one block: scale the whole drive up to a block
		blocks = []time.Duration{done[len(done)-1].Sub(start) * time.Duration(block) / time.Duration(len(done))}
	}
	return lat, blocks, answers, nil
}

// checkAnswer verifies one request's answers. A tuple that was rejected,
// degraded, rerouted, or — on an exact request — not answered by the
// exact path makes the operation a failure; a wrong answer is an error.
func (r *run) checkAnswer(q *fleetRequest, ans *router.BatchResponse) error {
	if ans.Count != len(q.tuples) || len(ans.Explanations) != len(q.tuples) {
		return fmt.Errorf("%d answers for %d tuples", len(ans.Explanations), len(q.tuples))
	}
	for j, e := range ans.Explanations {
		switch {
		case e.Status != "ok" || e.Route.Degraded:
			return fmt.Errorf("%w: tuple %d: status %q, source %q, degraded route %v: %s", errNotAnswered, j, e.Status, e.Source, e.Route.Degraded, e.Error)
		case q.exact && e.Source != "exact":
			return fmt.Errorf("%w: tuple %d: exactshap request answered from %q", errNotAnswered, j, e.Source)
		case !q.exact && e.Source != "store" && e.Source != "computed":
			return fmt.Errorf("tuple %d: unexpected source %q", j, e.Source)
		}
		if err := r.checkExplanation(q.tuples[j], e.Explanation); err != nil {
			return fmt.Errorf("tuple %d: %w", j, err)
		}
		if q.exact {
			if err := r.checkExact(q.tuples[j], e.Explanation.Attribution); err != nil {
				return fmt.Errorf("tuple %d: %w", j, err)
			}
		}
	}
	return nil
}

// warmFleet builds a primed fleet and sends the warm-up request through
// it, so the HTTP path has run once too.
func (r *run) warmFleet(prime [][]float64, warm *fleetRequest) (*fleet, error) {
	f, err := r.newFleet(fleetReplicas, prime)
	if err != nil {
		return nil, err
	}
	ans, err := f.post(0, warm)
	if err == nil {
		err = r.checkAnswer(warm, ans)
	}
	if err != nil {
		f.close() //shahinvet:allow errcheck — the warm-up's own error is the one to report
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return f, nil
}

// runServeFleet times POST /v1/explain/batch end to end. It is the only
// workload with queueing, flush sharing, routing, JSON and the store,
// and the only one where the exact TreeSHAP walk runs.
func runServeFleet(r *run) (err error) {
	n := r.z.ops(0.0235*float64(r.z.fleetBlock)) * r.z.fleetBlock
	var prime [][]float64
	var reqs []fleetRequest // reqs[n] is the warm-up request
	var f *fleet
	closeFleet := func() error {
		if f == nil {
			return nil
		}
		old := f
		f = nil
		return old.close()
	}
	defer func() {
		if cerr := closeFleet(); err == nil {
			err = cerr
		}
	}()
	// Each set-up builds and warms a whole fleet; only the last is kept.
	// Flush composition depends on arrival order, so there is no
	// fingerprint to compare between set-ups.
	err = r.setup("census", r.z.fleetPool, func() (string, error) {
		if err := closeFleet(); err != nil {
			return "", err
		}
		var err error
		if prime, reqs, err = r.fleetRequests(n); err != nil {
			return "", err
		}
		f, err = r.warmFleet(prime, &reqs[n])
		return "", err
	})
	if err != nil {
		return err
	}

	var answers []*router.BatchResponse // of the last phase
	var seen fleetSeen                  // over every traced phase
	err = r.measure(n, func(n int) ([]time.Duration, error) {
		if r.layer != nil {
			// A traced run sends the same requests four times, so each
			// phase starts from a fleet that has seen only the warm-up.
			if err := closeFleet(); err != nil {
				return nil, err
			}
			if f, err = r.warmFleet(prime, &reqs[len(reqs)-1]); err != nil {
				return nil, err
			}
		}
		var lat []time.Duration
		lat, r.unitWall, answers, err = r.drive(f, reqs[:n], fleetClients)
		if err == nil && r.tr != nil {
			seen.add(f, reqs[:n], answers)
		}
		return lat, err
	})
	if err != nil {
		return err
	}
	// p90 keeps 5 of a block's 50 requests beyond it, 120 of the run's.
	r.perUnit, r.explPerOp, r.tailPct, r.block = r.z.fleetBlock*r.z.fleetTuples, r.z.fleetTuples, 90, r.z.fleetBlock

	// Outside the timed region: correctness, then agreement of the first
	// computed answers with the no-reuse reference.
	var probe [][]float64
	var got []shahin.Explanation
	for i, ans := range answers {
		if ans == nil {
			continue // refused: already counted
		}
		if err := r.countFailure(r.checkAnswer(&reqs[i], ans)); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		for j, e := range ans.Explanations {
			if e.Source == "computed" && len(probe) < r.z.probe {
				probe, got = append(probe, reqs[i].tuples[j]), append(got, e.Explanation)
			}
		}
	}
	seq, err := r.sequential(r.options(shahin.LIME), probe)
	if err != nil {
		return err
	}
	r.agreement = topOverlap(got, seq.Explanations)
	if r.tr != nil {
		return r.fleetLayers(&seen, prime, probe, got)
	}
	return nil
}

// fleetSeen is what the traced phases showed from outside: the requests
// sent, in r.lat's order, their answers, and what each phase's warm
// explainers reported when it ended.
type fleetSeen struct {
	reqs             []fleetRequest
	answers          []*router.BatchResponse
	reports          []shahin.Report
	flushes, remines int
}

func (s *fleetSeen) add(f *fleet, reqs []fleetRequest, answers []*router.BatchResponse) {
	s.reqs, s.answers = append(s.reqs, reqs...), append(s.answers, answers...)
	for _, w := range f.warms {
		s.reports = append(s.reports, w.Report())
		s.flushes += w.Flushes()
		s.remines += w.Remines()
	}
}

// fleetLayers fills the serving tiers' metrics from what the responses
// and the warm explainers report, then replays the layers beneath.
func (r *run) fleetLayers(seen *fleetSeen, prime, probe [][]float64, got []shahin.Explanation) error {
	reqs, answers, flushes, remines := seen.reqs, seen.answers, seen.flushes, seen.remines
	r.coreLayers(seen.reports)

	source := map[string]float64{}
	perReplica := map[string]float64{}
	var waits, hops []float64
	tuples, routed, owned := 0.0, 0.0, 0.0
	for i, ans := range answers {
		if ans == nil {
			source["rejected"] += float64(len(reqs[i].tuples))
			tuples += float64(len(reqs[i].tuples))
			continue
		}
		slowest := 0.0
		for _, e := range ans.Explanations {
			tuples++
			source[e.Source]++
			waits = append(waits, e.WaitMS)
			slowest = max(slowest, e.WaitMS)
			if !reqs[i].exact {
				routed++
				perReplica[e.Route.Replica]++
				if !e.Route.Degraded && e.Route.Failovers == 0 {
					owned++
				}
			}
		}
		if !reqs[i].exact {
			hops = append(hops, ms(r.lat[i])-slowest)
		}
	}
	busiest := 0.0
	for _, c := range perReplica {
		busiest = max(busiest, c)
	}
	l := r.layer
	l["core.warm_tuples_per_flush"] = share(source["computed"], float64(flushes))
	l["core.warm_remines"] = float64(remines)
	l["serve.wait_ms_p50"] = medianFloat(waits)
	l["serve.store_share"] = source["store"] / tuples
	l["serve.exact_share"] = source["exact"] / tuples
	l["serve.computed_share"] = source["computed"] / tuples
	l["serve.rejected_share"] = source["rejected"] / tuples
	l["router.hop_ms_p50"] = medianFloat(hops)
	l["router.owner_share"] = share(owned, routed)
	l["router.replica_skew"] = share(busiest*fleetReplicas, routed)

	// The same request stream straight at one fresh replica: what the
	// router tier and the split into shards cost.
	sp := r.tr.start("serve.direct", r.parent)
	r.parent = sp
	direct, err := r.newFleet(1, prime)
	if err != nil {
		return err
	}
	direct.entry = direct.replicas[0].URL
	lat, _, _, err := r.drive(direct, reqs[:min(len(reqs), 100)], fleetClients)
	if cerr := direct.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("direct replica: %w", err)
	}
	r.tr.end(sp, nil)
	r.parent = rootSpan
	l["serve.direct_p50_ms"] = ms(median(lat))

	var all [][]float64
	for _, q := range reqs[:min(len(reqs), 16)] {
		all = append(all, q.tuples...)
	}
	frequent, err := r.replayFIM(all, false)
	if err != nil {
		return err
	}
	r.replayItemize(all)
	r.replayCache(frequent)
	r.replayPerturb(all, frequent, true)
	r.replayRouter(all)
	if err := r.replayLinmodel(all[0], true); err != nil {
		return err
	}
	if err := r.replayExplainer(shahin.LIME, all); err != nil {
		return err
	}
	if err := r.replayExact(all); err != nil {
		return err
	}
	return r.replayStore(probe, got)
}
