// Package serve implements the online explanation service behind
// cmd/shahin-serve: an HTTP API whose requests flow through a
// micro-batching admission queue into a single long-lived core.Warm
// explainer, so tuples from unrelated requests share one warm pool of
// frequent itemsets, pre-labelled perturbations, and cached labels.
//
// A free batcher at once flushes what is queued, up to BatchMax tuples,
// as one Warm.ExplainAllCtx call; tuples that arrive meanwhile form the
// next flush. Reuse comes from the warm pool, which persists across
// flushes and is renewed on the Warm explainer's stream schedule,
// not from tuples waiting for companions. An optional
// explanation store (internal/store) answers exact-repeat tuples at
// lookup latency before they ever reach the queue, is restored from
// disk at startup, and is snapshotted back on graceful drain.
//
// Determinism: answers depend on the order tuples reach the Warm
// explainer, not on how they group into flushes (see core.Warm); the
// order of concurrent requests is timing-dependent. DESIGN.md §11
// spells out the exact guarantee.
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

// Config tunes the admission queue and warm store of a Server. Zero
// values select the noted defaults.
type Config struct {
	// BatchMax caps the tuples one flush takes (default 64).
	BatchMax int
	// QueueCap bounds the admission queue; requests beyond it are
	// shed with 429 instead of queuing unboundedly (default 1024).
	QueueCap int
	// RequestTimeout bounds how long one request may wait for its
	// explanation, queue time included. The latest deadline of a flush's
	// requests also bounds the flush itself, threading into the
	// fault-chain cancellation ladder: a flush that outlives every
	// waiter is cancelled and its unattempted tuples marked failed.
	// 0 disables deadlines.
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
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return c
}

// request is one admitted tuple waiting for its flush.
type request struct {
	tuple []float64
	ctx   context.Context
	enq   time.Time
	done  chan outcome
}

// outcome is what became of one tuple. A flush delivers exp, bd and
// flush (or err) back to the waiting request; answer adds where the
// tuple was answered from and the HTTP status that says how it went.
type outcome struct {
	exp core.Explanation
	// err is why there is no explanation: from a flush, the error that
	// stopped it; from answer, a refusal's reason, which the response
	// carries to the caller.
	err error
	// source is "exact", "store", "computed" or "rejected".
	source string
	code   int
	// bd is the request's latency attribution: queue wait and batch
	// assembly measured here, pool/classify/solve inherited from the
	// flush's core breakdowns (zero when the run had no recorder).
	bd obs.StageBreakdown
	// flush is the warm-flush sequence number that answered the request,
	// joining its trace to the shared fan-in (0 for store hits).
	flush int
}

// Server owns the admission queue, the warm explainer, and the
// explanation store. Create one with New, mount Handler on an HTTP
// server, and call Drain on shutdown.
type Server struct {
	cfg  Config
	warm *core.Warm
	rec  *obs.Recorder

	// admitMu makes admission and drain mutually exclusive: admitters
	// hold it shared while sending, Drain holds it exclusively while
	// flipping draining and closing the queue, so no send can race the
	// close.
	admitMu sync.RWMutex
	queue   chan *request
	depth   atomic.Int64 // queued tuples, mirrored into GaugeServeQueueDepth

	storeMu sync.RWMutex
	store   *store.Store

	lifecycle context.Context
	endLife   context.CancelFunc
	batcherWG sync.WaitGroup

	draining atomic.Bool
	drainOne sync.Once
	drainErr error
}

// New builds a Server around a warm explainer, restores the explanation
// store from cfg.StorePath when the snapshot exists, and starts the
// batcher goroutine. The caller keeps ownership of warm (for Report()
// and friends) but must route all explanation traffic through the
// Server while it is running.
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
	// context: it ends when Close runs, not when a caller gives up.
	ctx, cancel := context.WithCancel(obs.RootContext())
	s := &Server{
		cfg:       cfg,
		warm:      warm,
		rec:       cfg.Recorder,
		queue:     make(chan *request, cfg.QueueCap),
		store:     st,
		lifecycle: ctx,
		endLife:   cancel,
	}
	// Publish the restored store size up front so the gauge is truthful
	// before the first flush lands.
	s.rec.Gauge(obs.GaugeServeStoreSize).Set(int64(st.Len()))
	s.batcherWG.Add(1)
	go s.runBatcher()
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

// admit enqueues one tuple for the next flush. It fails when the server
// is draining (the caller's 503) or the queue is full (its 429).
func (s *Server) admit(ctx context.Context, tuple []float64) (*request, error) {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	req := &request{
		tuple: tuple,
		ctx:   ctx,
		enq:   time.Now(), //shahinvet:allow walltime — queue-wait latency feeds the serving histograms
		done:  make(chan outcome, 1),
	}
	select {
	case s.queue <- req:
		s.rec.Gauge(obs.GaugeServeQueueDepth).Set(s.depth.Add(1))
		return req, nil
	default:
		s.rec.Counter(obs.CounterServeRejected).Inc()
		return nil, errQueueFull
	}
}

var (
	errDraining  = errors.New("serve: draining, not accepting new requests")
	errQueueFull = errors.New("serve: admission queue full")
)

// runBatcher is the single consumer of the admission queue: it gathers
// each batch behind its first request and flushes it through the warm
// explainer. Tuples that arrive while a flush runs queue for the next.
func (s *Server) runBatcher() {
	defer s.batcherWG.Done()
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := s.gather(first)
		s.rec.Gauge(obs.GaugeServeQueueDepth).Set(s.depth.Add(-int64(len(batch))))
		s.flush(batch)
	}
}

// gather batches first with up to BatchMax-1 of the requests already
// queued.
func (s *Server) gather(first *request) []*request {
	batch := []*request{first}
	for len(batch) < s.cfg.BatchMax {
		select {
		case req, open := <-s.queue:
			if !open {
				return batch
			}
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// flush explains one batch of admitted requests as a single warm-pool
// call and delivers each request its explanation.
func (s *Server) flush(batch []*request) {
	start := time.Now() //shahinvet:allow walltime — flush latency feeds the serving event log
	var waitHist, flushHist *obs.Histogram
	if s.rec != nil {
		waitHist = s.rec.Histogram(obs.HistServeWait)
		flushHist = s.rec.Histogram(obs.HistServeFlushSize)
	}

	// Requests whose waiter already gave up (deadline, disconnect) are
	// answered with their context error instead of spending compute.
	live := batch[:0:len(batch)]
	for _, req := range batch {
		if waitHist != nil {
			waitHist.Observe(start.Sub(req.enq))
		}
		if err := req.ctx.Err(); err != nil {
			s.rec.Counter(obs.CounterServeTimeouts).Inc()
			req.done <- outcome{err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}

	// The flush context outlives any single request only up to the
	// latest per-request deadline: past that point nobody is waiting,
	// so the fault ladder's cancellation path kicks in and the
	// remaining tuples come back StatusFailed.
	fctx := s.lifecycle
	if s.cfg.RequestTimeout > 0 {
		latest := live[0].enq
		for _, req := range live[1:] {
			if req.enq.After(latest) {
				latest = req.enq
			}
		}
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(fctx, latest.Add(s.cfg.RequestTimeout))
		defer cancel()
	}

	tuples := make([][]float64, len(live))
	for i, req := range live {
		tuples[i] = req.tuple
	}
	res, err := s.warm.ExplainAllCtx(fctx, tuples)
	if res == nil {
		for _, req := range live {
			req.done <- outcome{err: err}
		}
		return
	}

	s.storeMu.Lock()
	for i, req := range live {
		if res.Explanations[i].Status != core.StatusFailed {
			s.store.Put(req.tuple, res.Explanations[i])
		}
	}
	s.rec.Gauge(obs.GaugeServeStoreSize).Set(int64(s.store.Len()))
	s.storeMu.Unlock()

	// Latency attribution: each request inherits its tuple's core stage
	// breakdown (pool_sample / classify / solve), plus the two stages
	// only the serving layer can see — time queued before the flush
	// started, and the flush residue (batching, store writes, fan-out)
	// not attributed to any core stage. Core already observed its stages
	// into the histograms, so only the serving stages are observed here.
	deliver := time.Now() //shahinvet:allow walltime — flush latency attribution feeds the serving histograms
	flushDur := deliver.Sub(start)
	for i, req := range live {
		var bd obs.StageBreakdown
		if res.Costs != nil {
			bd = res.Costs[i].Stages
		}
		bd.QueueWait = start.Sub(req.enq)
		if bd.QueueWait < 0 {
			bd.QueueWait = 0
		}
		bd.BatchAssembly = flushDur - bd.PoolSample - bd.Classify - bd.Solve
		if bd.BatchAssembly < 0 {
			bd.BatchAssembly = 0
		}
		s.rec.ObserveStages(obs.StageBreakdown{QueueWait: bd.QueueWait, BatchAssembly: bd.BatchAssembly})
		req.done <- outcome{exp: res.Explanations[i], bd: bd, flush: res.Flush}
	}

	s.rec.Counter(obs.CounterServeFlushes).Inc()
	if flushHist != nil {
		// Units are tuples, not time: the log2 histogram just needs an
		// integer-valued observation.
		flushHist.Observe(time.Duration(len(live)))
	}
	s.rec.Emit(obs.Event{
		Type: obs.EventServeFlush, Tuple: -1,
		Itemsets: len(live),
		Pooled:   res.Report.ReusedSamples,
		Fresh:    res.Report.Invocations,
		DurMS:    float64(time.Since(start)) / float64(time.Millisecond),
	})
}

// Drain shuts the server down gracefully: readiness flips to false, new
// admissions are rejected, the requests already queued are flushed and
// answered, and the explanation store is snapshotted to StorePath. It
// is idempotent; concurrent calls share one drain. The context bounds
// only the wait for in-flight flushes — the store snapshot is always
// attempted so answered work is never lost.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.admitMu.Lock()
		s.draining.Store(true)
		close(s.queue)
		s.admitMu.Unlock()
		queued := int(s.depth.Load())

		flushed := make(chan struct{})
		go func() {
			s.batcherWG.Wait()
			close(flushed)
		}()
		select {
		case <-flushed:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
		}
		s.endLife()

		s.rec.Emit(obs.Event{Type: obs.EventServeDrain, Tuple: -1, Itemsets: queued})
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
