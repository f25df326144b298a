// Package serve implements the online explanation service behind
// cmd/shahin-serve: an HTTP API whose computed tuples run through a
// single long-lived core.Warm explainer, so tuples from unrelated
// requests share one warm pool of frequent itemsets, pre-labelled
// perturbations, and cached labels — Shahin-Streaming (§3.5 of the
// paper), served.
//
// A computed tuple is one Warm.ExplainAllCtx call on its request's own
// goroutine. The Warm's flush gate is the only queue: admission counts
// the tuples waiting at it and sheds load past QueueCap. An optional
// explanation store (internal/store) answers exact-repeat tuples at
// lookup latency before they are admitted, is restored from disk at
// startup, and is snapshotted back on graceful drain.
//
// Determinism: answers depend on the order tuples reach the Warm
// explainer (see core.Warm); the order of concurrent requests is
// timing-dependent. DESIGN.md §11 spells out the exact guarantee.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"shahin/internal/core"
	"shahin/internal/obs"
	"shahin/internal/store"
)

// Config tunes admission and the warm store of a Server. Zero values
// select the noted defaults.
type Config struct {
	// QueueCap bounds the tuples waiting behind the one being explained;
	// requests beyond it are shed with 429 instead of queuing unboundedly
	// (default 1024).
	QueueCap int
	// RequestTimeout bounds how long one request may wait for its
	// explanation, gate wait included. It is the call's deadline,
	// threading into the fault-chain cancellation ladder: a tuple whose
	// deadline passes at the gate spends no classifier call, and one
	// whose deadline passes mid-call comes back failed. 0 disables
	// deadlines.
	RequestTimeout time.Duration
	// StorePath, when set, names the explanation-store snapshot: loaded
	// on New if the file exists, written back on Drain. Empty disables
	// persistence (the in-memory store still answers repeats).
	StorePath string
	// Recorder receives serving metrics, events and one exemplar per
	// request; nil disables instrumentation. Pass the same recorder in the Warm explainer's
	// Options so pipeline and serving telemetry land in one place.
	Recorder *obs.Recorder
}

// withDefaults fills zero Config fields.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// outcome is what became of one tuple: its explanation (or the error
// that stopped it), where it was answered from and the HTTP status that
// says how it went.
type outcome struct {
	exp core.Explanation
	// err is why there is no explanation; the response carries it to
	// the caller.
	err error
	// source is "exact", "store", "computed" or "rejected".
	source string
	code   int
	// bd is the request's latency attribution: gate wait and serving
	// residue measured here, pool/classify/solve inherited from the
	// call's core breakdown (zero when the run had no recorder).
	bd obs.StageBreakdown
	// flush is the warm-flush sequence number that answered the request,
	// joining its trace to the call's root span (0 for store hits).
	flush int
}

// Server owns admission, the warm explainer, and the explanation store.
// Create one with New, mount Handler on an HTTP server, and call Drain
// on shutdown.
type Server struct {
	cfg  Config
	warm *core.Warm
	rec  *obs.Recorder

	// admitMu makes admission and drain mutually exclusive: admitters
	// hold it shared while counting a call in, Drain holds it
	// exclusively while flipping draining, so no call joins calls after
	// Drain starts waiting on it.
	admitMu sync.RWMutex
	pending atomic.Int64 // admitted tuples not yet answered
	calls   sync.WaitGroup

	storeMu sync.RWMutex
	store   *store.Store

	// lifecycle ends when Drain stops waiting: a call still in flight
	// then, past the drain's deadline, is cancelled with it.
	lifecycle context.Context
	endLife   context.CancelFunc

	draining atomic.Bool
	drainOne sync.Once
	drainErr error
}

// New builds a Server around a warm explainer and restores the
// explanation store from cfg.StorePath when the snapshot exists. The
// caller keeps ownership of warm (for Report() and friends) but must
// route all explanation traffic through the Server while it is running.
func New(warm *core.Warm, cfg Config) (*Server, error) {
	if warm == nil {
		return nil, errors.New("serve: New needs a warm explainer")
	}
	cfg = cfg.withDefaults()
	st := store.New()
	if cfg.StorePath != "" {
		f, err := os.Open(cfg.StorePath)
		switch {
		case err == nil:
			st, err = store.Load(f)
			f.Close() //shahinvet:allow errcheck — read-only close cannot lose data
			if err != nil {
				return nil, fmt.Errorf("serve: restoring store %s: %w", cfg.StorePath, err)
			}
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("serve: opening store %s: %w", cfg.StorePath, err)
		}
	}
	// The lifecycle root is deliberately detached from any request
	// context: it ends when Drain does, not when a caller gives up.
	ctx, cancel := context.WithCancel(obs.RootContext())
	s := &Server{
		cfg:       cfg,
		warm:      warm,
		rec:       cfg.Recorder,
		store:     st,
		lifecycle: ctx,
		endLife:   cancel,
	}
	// Publish the restored store size up front so the gauge is truthful
	// before the first answer lands.
	s.rec.Gauge(obs.GaugeServeStoreSize).Set(int64(st.Len()))
	return s, nil
}

// StoreLen reports how many explanations the warm store currently holds.
func (s *Server) StoreLen() int {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	return s.store.Len()
}

// lookup answers a tuple from the explanation store, if present.
func (s *Server) lookup(tuple []float64) (core.Explanation, bool) {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	return s.store.Get(tuple)
}

// admit counts one tuple in for a Warm call. It fails when the server
// is draining (the caller's 503) or QueueCap tuples already wait behind
// the one being explained (its 429). After a nil error the caller owes
// one release.
func (s *Server) admit() error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return errDraining
	}
	n := s.pending.Add(1)
	if n > int64(s.cfg.QueueCap)+1 {
		s.pending.Add(-1)
		s.rec.Counter(obs.CounterServeRejected).Inc()
		return errQueueFull
	}
	s.calls.Add(1)
	s.rec.Gauge(obs.GaugeServeQueueDepth).Set(n - 1)
	return nil
}

// release counts one admitted tuple out.
func (s *Server) release() {
	s.rec.Gauge(obs.GaugeServeQueueDepth).Set(max(s.pending.Add(-1)-1, 0))
	s.calls.Done()
}

var (
	errDraining  = errors.New("serve: draining, not accepting new requests")
	errQueueFull = errors.New("serve: admission queue full")
)

// compute explains one admitted tuple as one Warm call under ctx,
// bounded by RequestTimeout and by the server's lifecycle, and stores a
// non-failed answer before it returns.
func (s *Server) compute(ctx context.Context, tuple []float64) outcome {
	var cancel context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	defer context.AfterFunc(s.lifecycle, cancel)()

	start := time.Now() //shahinvet:allow walltime — gate wait feeds the serving histograms
	res, err := s.warm.ExplainAllCtx(ctx, [][]float64{tuple})
	elapsed := time.Since(start)
	switch {
	case res == nil:
		return outcome{source: "computed", code: http.StatusInternalServerError, err: err}
	case res.Explanations[0].Status == core.StatusFailed && ctx.Err() != nil:
		// The deadline passed, the caller went or the drain gave up:
		// the answer names no reason.
		s.rec.Counter(obs.CounterServeTimeouts).Inc()
		return outcome{source: "computed", code: http.StatusGatewayTimeout}
	}
	out := outcome{exp: res.Explanations[0], source: "computed", code: http.StatusOK, flush: res.Flush}
	if out.exp.Status == core.StatusFailed {
		out.code = http.StatusInternalServerError
	} else {
		s.storeMu.Lock()
		s.store.Put(tuple, out.exp)
		s.rec.Gauge(obs.GaugeServeStoreSize).Set(int64(s.store.Len()))
		s.storeMu.Unlock()
	}

	// Latency attribution: the tuple's core stages (pool_sample /
	// classify / solve), plus the two only the serving layer sees —
	// the wait at the Warm's gate (the call's time minus its wall time)
	// and the call's residue no core stage claims (re-mines, span work).
	// Core already observed its stages, so only these two are observed
	// here.
	if res.Costs != nil {
		out.bd = res.Costs[0].Stages
	}
	wall := res.Report.WallTime
	out.bd.QueueWait = max(elapsed-wall, 0)
	out.bd.BatchAssembly = max(wall-out.bd.PoolSample-out.bd.Classify-out.bd.Solve, 0)
	s.rec.ObserveStages(obs.StageBreakdown{QueueWait: out.bd.QueueWait, BatchAssembly: out.bd.BatchAssembly})
	if s.rec != nil {
		s.rec.Histogram(obs.HistServeWait).Observe(out.bd.QueueWait)
	}
	return out
}

// Drain shuts the server down gracefully: readiness flips to false, new
// admissions are rejected, the calls in flight are answered, and the
// explanation store is snapshotted to StorePath. It is idempotent;
// concurrent calls share one drain. The context bounds only the wait
// for in-flight calls — past it they are cancelled, and the store
// snapshot is always attempted so answered work is never lost.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		s.admitMu.Unlock()
		inFlight := int(s.pending.Load())

		answered := make(chan struct{})
		go func() {
			s.calls.Wait()
			close(answered)
		}()
		select {
		case <-answered:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
		}
		s.endLife()

		s.rec.Emit(obs.Event{Type: obs.EventServeDrain, Tuple: -1, Itemsets: inFlight})
		if err := s.saveStore(); err != nil && s.drainErr == nil {
			s.drainErr = err
		}
	})
	return s.drainErr
}

// maxPeerSnapshotBytes bounds a peer snapshot download (64 MiB — far
// above any store a bench or serving deployment produces today).
const maxPeerSnapshotBytes = 64 << 20

// RestoreFromPeers warms this server's explanation store from a ring
// neighbour: it fetches GET <peer>/snapshot from each peer URL in
// order and installs the first snapshot that passes the transport
// checksum, the schema-version gate, and store.Load's own header
// validation. The installed snapshot replaces the current store
// wholesale, so call it right after New — before traffic — on a
// restarted replica. It returns the number of explanations restored.
func (s *Server) RestoreFromPeers(ctx context.Context, peers []string, client *http.Client) (int, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var errs []error
	for _, peer := range peers {
		n, err := s.restoreFromPeer(ctx, peer, client)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", peer, err))
			continue
		}
		return n, nil
	}
	if len(errs) == 0 {
		return 0, errors.New("serve: RestoreFromPeers: no peers given")
	}
	return 0, fmt.Errorf("serve: no peer could supply a snapshot: %w", errors.Join(errs...))
}

// restoreFromPeer fetches and installs one peer's snapshot.
func (s *Server) restoreFromPeer(ctx context.Context, peer string, client *http.Client) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/snapshot", nil)
	if err != nil {
		return 0, fmt.Errorf("building snapshot request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("fetching snapshot: %w", err)
	}
	defer resp.Body.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("snapshot endpoint answered %s", resp.Status)
	}
	if v := resp.Header.Get(headerStoreVersion); v != "" && v != strconv.FormatUint(uint64(store.SnapshotVersion), 10) {
		return 0, fmt.Errorf("peer snapshot schema version %s, this binary reads version %d", v, store.SnapshotVersion)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerSnapshotBytes+1))
	if err != nil {
		return 0, fmt.Errorf("reading snapshot body: %w", err)
	}
	if len(body) > maxPeerSnapshotBytes {
		return 0, fmt.Errorf("snapshot body exceeds the %d-byte cap", maxPeerSnapshotBytes)
	}
	if want := resp.Header.Get(headerStoreChecksum); want != "" {
		if got := fmt.Sprintf("%016x", store.Fingerprint(body)); got != want {
			return 0, fmt.Errorf("snapshot transport checksum mismatch: header %s, body %s", want, got)
		}
	}
	st, err := store.Load(bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("decoding snapshot: %w", err)
	}
	s.storeMu.Lock()
	s.store = st
	s.storeMu.Unlock()
	s.rec.Gauge(obs.GaugeServeStoreSize).Set(int64(st.Len()))
	return st.Len(), nil
}

// saveStore snapshots the explanation store to StorePath (no-op when
// persistence is disabled). The write goes through a temp file and
// rename so a crash mid-snapshot never truncates the previous one.
func (s *Server) saveStore() error {
	if s.cfg.StorePath == "" {
		return nil
	}
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	tmp := s.cfg.StorePath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serve: snapshotting store: %w", err)
	}
	if err := s.store.Save(f); err != nil {
		f.Close()      //shahinvet:allow errcheck — close error is secondary; the write error wins
		os.Remove(tmp) //shahinvet:allow errcheck — best-effort cleanup of the failed snapshot
		return fmt.Errorf("serve: snapshotting store: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //shahinvet:allow errcheck — best-effort cleanup of the failed snapshot
		return fmt.Errorf("serve: snapshotting store: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.StorePath); err != nil {
		return fmt.Errorf("serve: snapshotting store: %w", err)
	}
	return nil
}
