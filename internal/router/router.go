// Package router implements the failure-aware sharded front tier
// behind cmd/shahin-router: it consistent-hashes each tuple's
// discretised frequent-itemset signature onto N shahin-serve replicas
// so the cross-tuple pool and store reuse that makes Shahin fast
// survives the split into shards — tuples identical after
// discretisation always land on the same replica, where the warm pool
// already holds their itemsets' perturbations.
//
// Robustness is the headline: every replica is watched by an active
// /healthz prober and passive error accounting, both riding one
// per-replica circuit breaker (fault.NewBreaker), so a dead or
// misbehaving replica is failed over in ring order — the answer is
// marked as routed degraded, never silently dropped — and requests are
// only refused (503 with a JSON body) when every replica in the
// sequence has failed. Admission is bounded: past MaxInflight
// concurrent requests the router sheds load with 429 + Retry-After
// instead of queue collapse. A restarted replica warms its explanation
// store from a healthy ring neighbour via serve's checksummed,
// version-gated /snapshot endpoint (serve.RestoreFromPeers).
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/serve"
)

// Policy selects how the router spreads tuples over replicas.
type Policy string

const (
	// PolicyAffinity consistent-hashes the tuple's itemset signature
	// (the default; preserves warm-pool reuse).
	PolicyAffinity Policy = "affinity"
	// PolicyRoundRobin ignores tuple content — the naive baseline the
	// Sharded experiment measures affinity against.
	PolicyRoundRobin Policy = "roundrobin"
)

// Config assembles a Router. Replicas and Stats are required; zero
// values elsewhere select the noted defaults.
type Config struct {
	// Replicas are the shahin-serve base URLs, e.g.
	// "http://127.0.0.1:18081". Order is identity: replica i keeps ring
	// position i across restarts.
	Replicas []string
	// Stats is the shared training-distribution statistics used to
	// discretise tuples into items; it must match the replicas'
	// discretiser or affinity breaks silently.
	Stats *dataset.Stats
	// VNodes is the virtual-point count per replica (DefaultVNodes).
	VNodes int
	// Policy is the routing policy (PolicyAffinity).
	Policy Policy
	// MaxInflight bounds concurrent in-flight requests; excess load is
	// shed with 429 + Retry-After (default 256).
	MaxInflight int
	// ForwardTimeout bounds one forward attempt to one replica
	// (default 30s).
	ForwardTimeout time.Duration
	// ProbeInterval is the active health-check period (default 1s);
	// ProbeTimeout bounds one probe (default ProbeInterval/2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Breaker tunes the per-replica circuit breakers. When neither
	// cooldown field is set, BreakerCooldownCalls defaults to 2 so a
	// recovered replica is re-trialled after two rejected calls or
	// probes rather than fault.Config's chain default of 100.
	Breaker fault.Config
	// Recorder receives router metrics and per-replica breaker events;
	// nil disables instrumentation.
	Recorder *obs.Recorder
	// Client overrides the forwarding HTTP client; probes and forwards
	// share it. nil uses a client of the router's own that keeps up to
	// MaxInflight idle connections per replica (a batch forwards its
	// tuples concurrently) and is shut down by Close.
	Client *http.Client
}

// withDefaults fills zero Config fields.
func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Policy == "" {
		c.Policy = PolicyAffinity
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval / 2
	}
	if c.Breaker.BreakerCooldown <= 0 && c.Breaker.BreakerCooldownCalls <= 0 {
		c.Breaker.BreakerCooldownCalls = 2
	}
	return c
}

// replica is the router's view of one shahin-serve backend.
type replica struct {
	name    string
	base    string
	breaker *fault.Breaker
	healthy atomic.Bool
	upGauge *obs.Gauge
}

// setHealthy flips the health flag and mirrors it into the up gauge.
func (rp *replica) setHealthy(up bool) {
	rp.healthy.Store(up)
	if up {
		rp.upGauge.Set(1)
	} else {
		rp.upGauge.Set(0)
	}
}

// Router is the sharded serving front tier. Create one with New, mount
// Handler on an HTTP server, and call Close on shutdown.
type Router struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	client   *http.Client
	owned    *http.Transport // the default client's transport; nil under Config.Client
	rec      *obs.Recorder

	inflight chan struct{} // admission semaphore, capacity MaxInflight
	rr       atomic.Uint64 // round-robin cursor

	lifecycle context.Context
	endLife   context.CancelFunc
	probeWG   sync.WaitGroup
}

// New builds a Router over cfg.Replicas and starts the active health
// prober. Stats is required for affinity routing.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: New needs at least one replica URL")
	}
	cfg = cfg.withDefaults()
	if cfg.Policy != PolicyAffinity && cfg.Policy != PolicyRoundRobin {
		return nil, fmt.Errorf("router: unknown policy %q", cfg.Policy)
	}
	if cfg.Policy == PolicyAffinity && cfg.Stats == nil {
		return nil, errors.New("router: affinity routing needs dataset stats")
	}
	client := cfg.Client
	var owned *http.Transport
	if client == nil {
		// http.DefaultTransport keeps two idle connections per host, so
		// all but two of a batch's concurrent forwards would dial afresh.
		owned = http.DefaultTransport.(*http.Transport).Clone()
		owned.MaxIdleConnsPerHost = cfg.MaxInflight
		owned.MaxIdleConns = cfg.MaxInflight * len(cfg.Replicas)
		client = &http.Client{Transport: owned}
	}
	// The prober's lifecycle is deliberately detached from any request
	// context: it ends when Close runs, not when a caller gives up.
	ctx, cancel := context.WithCancel(obs.RootContext())
	rt := &Router{
		cfg:       cfg,
		ring:      NewRing(len(cfg.Replicas), cfg.VNodes),
		client:    client,
		owned:     owned,
		rec:       cfg.Recorder,
		inflight:  make(chan struct{}, cfg.MaxInflight),
		lifecycle: ctx,
		endLife:   cancel,
	}
	for i, base := range cfg.Replicas {
		name := fmt.Sprintf("replica%d", i)
		rp := &replica{
			name:    name,
			base:    base,
			breaker: fault.NewBreaker(cfg.Breaker, cfg.Recorder, name),
			upGauge: rt.rec.Gauge(obs.GaugeReplicaUpPrefix + name),
		}
		// Optimistic start: replicas are presumed up until a probe or a
		// forward says otherwise, so a cold router routes immediately.
		rp.setHealthy(true)
		rt.replicas = append(rt.replicas, rp)
	}
	rt.probeWG.Add(1)
	go rt.runProber()
	return rt, nil
}

// Close stops the health prober and closes the default client's idle
// connections. It does not touch the replicas.
func (rt *Router) Close() {
	rt.endLife()
	rt.probeWG.Wait()
	if rt.owned != nil {
		rt.owned.CloseIdleConnections()
	}
}

// route computes the failover sequence for one tuple under the
// configured policy: the preferred replica first, then every other
// replica exactly once.
func (rt *Router) route(tuple []float64, items []dataset.Item, seq []int) []int {
	switch rt.cfg.Policy {
	case PolicyRoundRobin:
		n := len(rt.replicas)
		start := int(rt.rr.Add(1)-1) % n
		if cap(seq) < n {
			seq = make([]int, n)
		}
		seq = seq[:n]
		for i := range seq {
			seq[i] = (start + i) % n
		}
		return seq
	default:
		items = rt.cfg.Stats.ItemizeRow(tuple, items)
		return rt.ring.Sequence(Signature(items), seq)
	}
}

// orderByHealth stably partitions a failover sequence so replicas
// currently marked healthy are tried before unhealthy ones. Unhealthy
// replicas stay in the sequence — when the whole fleet is down they
// are still offered the request rather than dropping it — they just
// stop shielding healthy nodes behind them.
func (rt *Router) orderByHealth(seq, out []int) []int {
	out = out[:0]
	for _, i := range seq {
		if rt.replicas[i].healthy.Load() {
			out = append(out, i)
		}
	}
	for _, i := range seq {
		if !rt.replicas[i].healthy.Load() {
			out = append(out, i)
		}
	}
	return out
}

// forwardResult is one replica's answer to a forwarded explain call.
type forwardResult struct {
	status int
	resp   serve.ExplainResponse
}

// errReplicaFailed classifies a forward answer that should fail over:
// transport errors, 5xx, 429 (another replica may have capacity), and a
// body that is oversized or not the explain protocol's.
var errReplicaFailed = errors.New("replica failed")

// maxAnswerBytes bounds what the router reads of a replica's answer to
// one tuple (an explanation is a few KiB).
const maxAnswerBytes = 1 << 20

// forward posts one explain request to a replica and classifies the
// outcome: nil error for answers the router should return to the
// caller (2xx and client-caused 4xx), errReplicaFailed-wrapped errors
// for answers that should trip the breaker and fail over.
func (rt *Router) forward(ctx context.Context, rp *replica, body []byte, traceparent string) (forwardResult, error) {
	fctx, cancel := context.WithTimeout(ctx, rt.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, rp.base+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		return forwardResult{}, fmt.Errorf("%w: building request: %w", errReplicaFailed, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", traceparent)
	resp, err := rt.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return forwardResult{}, ctx.Err() // the caller gave up; don't blame the replica
		}
		return forwardResult{}, fmt.Errorf("%w: %w", errReplicaFailed, err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	answer, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes+1))
	if err != nil {
		if ctx.Err() != nil {
			return forwardResult{}, ctx.Err()
		}
		return forwardResult{}, fmt.Errorf("%w: reading body: %w", errReplicaFailed, err)
	}
	if resp.StatusCode >= http.StatusInternalServerError || resp.StatusCode == http.StatusTooManyRequests {
		return forwardResult{}, fmt.Errorf("%w: %s answered %s", errReplicaFailed, rp.name, resp.Status)
	}
	if len(answer) > maxAnswerBytes {
		return forwardResult{}, fmt.Errorf("%w: %s answered more than the %d-byte cap", errReplicaFailed, rp.name, maxAnswerBytes)
	}
	res := forwardResult{status: resp.StatusCode}
	if err := json.Unmarshal(answer, &res.resp); err != nil {
		return forwardResult{}, fmt.Errorf("%w: %s answered %s with a body that is not an explain response: %w", errReplicaFailed, rp.name, resp.Status, err)
	}
	return res, nil
}

// explainVia walks the failover sequence, offering the request to each
// replica through its breaker, and returns the first non-failing
// answer plus the index of the replica that served it and how many
// failovers it took. A replica whose breaker is open is skipped in
// O(1) without a network round trip.
func (rt *Router) explainVia(ctx context.Context, seq []int, body []byte, traceparent string) (forwardResult, int, int, error) {
	var res forwardResult
	var lastErr error
	for n, i := range seq { // n replicas have failed by the time replica i is tried
		rp := rt.replicas[i]
		err := rp.breaker.Do(ctx, func(c context.Context) error {
			r, err := rt.forward(c, rp, body, traceparent)
			if err == nil {
				res = r
			}
			return err
		})
		if err == nil {
			rp.setHealthy(true)
			if n > 0 {
				rt.rec.Counter(obs.CounterRouterFailovers).Inc()
			}
			return res, i, n, nil
		}
		if ctx.Err() != nil {
			return forwardResult{}, -1, n, ctx.Err()
		}
		if !errors.Is(err, fault.ErrBreakerOpen) {
			rp.setHealthy(false)
		}
		lastErr = err
	}
	rt.rec.Counter(obs.CounterRouterUnrouted).Inc()
	return forwardResult{}, -1, len(seq), fmt.Errorf("router: every replica failed: %w", lastErr)
}
