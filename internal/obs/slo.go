package obs

import (
	"sync"
	"time"
)

// SLO objective names as they appear in status JSON and Prometheus
// export.
const (
	// SLOLatency is the latency objective: fraction of requests at or
	// under the latency target.
	SLOLatency = "latency"
	// SLOAvailability is the availability objective: fraction of
	// requests answered successfully (no 5xx-class outcome).
	SLOAvailability = "availability"
)

// SLOConfig parameterises an SLOTracker. Zero fields take defaults.
type SLOConfig struct {
	// Window is the rolling window objectives are evaluated over
	// (default 5m).
	Window time.Duration
	// Buckets subdivides the window; old buckets age out whole, so
	// more buckets mean a smoother roll (default 30).
	Buckets int
	// LatencyTarget is the per-request latency objective threshold
	// (default 250ms).
	LatencyTarget time.Duration
	// LatencyGoal is the target fraction of requests at or under
	// LatencyTarget (default 0.99).
	LatencyGoal float64
	// AvailabilityGoal is the target fraction of successful requests
	// (default 0.999).
	AvailabilityGoal float64
	// Clock supplies time; inject a fake for deterministic tests
	// (default time.Now).
	Clock func() time.Time
}

// withDefaults fills zero fields.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
	if c.Buckets <= 0 {
		c.Buckets = 30
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 250 * time.Millisecond
	}
	if c.LatencyGoal <= 0 || c.LatencyGoal >= 1 {
		c.LatencyGoal = 0.99
	}
	if c.AvailabilityGoal <= 0 || c.AvailabilityGoal >= 1 {
		c.AvailabilityGoal = 0.999
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// sloBucket is one time slice of the rolling window. seq is the
// bucket's absolute sequence number since the tracker's epoch; a slot
// whose seq is stale is reset on first touch, so aged-out data never
// needs a sweeper goroutine.
type sloBucket struct {
	seq   int64
	total int64
	slow  int64 // latency > target
	bad   int64 // unsuccessful outcome
}

// SLOTracker evaluates rolling-window latency and availability
// objectives with burn-rate computation. All methods are safe for
// concurrent use and no-op (or return zero status) on a nil receiver.
type SLOTracker struct {
	cfg   SLOConfig
	width time.Duration // bucket width = Window / Buckets

	mu      sync.Mutex
	epoch   time.Time
	buckets []sloBucket
}

// NewSLOTracker builds a tracker from cfg (zero fields take defaults).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	t := &SLOTracker{
		cfg:   cfg,
		width: cfg.Window / time.Duration(cfg.Buckets),
		epoch: cfg.Clock(),
		// One extra slot so a full window of closed buckets coexists
		// with the live one.
		buckets: make([]sloBucket, cfg.Buckets+1),
	}
	for i := range t.buckets {
		t.buckets[i].seq = -1
	}
	return t
}

// bucket returns the live bucket for now, recycling stale slots in
// place. Caller holds t.mu.
func (t *SLOTracker) bucket(now time.Time) *sloBucket {
	seq := int64(now.Sub(t.epoch) / t.width)
	if seq < 0 {
		seq = 0
	}
	slot := &t.buckets[seq%int64(len(t.buckets))]
	if slot.seq != seq {
		*slot = sloBucket{seq: seq}
	}
	return slot
}

// Record folds one served request into the window: its latency and
// whether it was answered successfully. Nil-safe.
func (t *SLOTracker) Record(latency time.Duration, ok bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.bucket(t.cfg.Clock())
	b.total++
	if latency > t.cfg.LatencyTarget {
		b.slow++
	}
	if !ok {
		b.bad++
	}
}

// SLOObjective is one objective's rolling-window evaluation.
type SLOObjective struct {
	// Name is SLOLatency or SLOAvailability.
	Name string `json:"name"`
	// Goal is the target good-event fraction.
	Goal float64 `json:"goal"`
	// TargetMS is the latency threshold (latency objective only).
	TargetMS float64 `json:"target_ms,omitempty"`
	// Total counts requests in the window.
	Total int64 `json:"total"`
	// Bad counts objective violations in the window.
	Bad int64 `json:"bad"`
	// Compliance is the good-event fraction (1 on an empty window).
	Compliance float64 `json:"compliance"`
	// BurnRate is the error-budget burn rate: the bad fraction divided
	// by the budget (1 − goal). 1.0 burns the budget exactly at the
	// window's pace; above 1 the objective is being missed.
	BurnRate float64 `json:"burn_rate"`
	// Met reports compliance ≥ goal.
	Met bool `json:"met"`
}

// SLOStatus is the tracker's full evaluation, as served by /slo.
type SLOStatus struct {
	// WindowMS is the rolling window in milliseconds.
	WindowMS float64 `json:"window_ms"`
	// Objectives holds the latency and availability evaluations.
	Objectives []SLOObjective `json:"objectives"`
}

// makeObjective evaluates one objective from window sums.
func makeObjective(name string, goal, targetMS float64, total, bad int64) SLOObjective {
	o := SLOObjective{Name: name, Goal: goal, TargetMS: targetMS, Total: total, Bad: bad, Compliance: 1, Met: true}
	if total > 0 {
		badFrac := float64(bad) / float64(total)
		o.Compliance = 1 - badFrac
		o.BurnRate = badFrac / (1 - goal)
		o.Met = o.Compliance >= goal
	}
	return o
}

// Status evaluates both objectives over the current window. Nil-safe
// (zero status).
func (t *SLOTracker) Status() SLOStatus {
	if t == nil {
		return SLOStatus{}
	}
	t.mu.Lock()
	now := t.cfg.Clock()
	cur := int64(now.Sub(t.epoch) / t.width)
	oldest := cur - int64(t.cfg.Buckets)
	var total, slow, bad int64
	for i := range t.buckets {
		b := t.buckets[i]
		if b.seq > oldest && b.seq <= cur {
			total += b.total
			slow += b.slow
			bad += b.bad
		}
	}
	t.mu.Unlock()
	return SLOStatus{
		WindowMS: durToMS(t.cfg.Window),
		Objectives: []SLOObjective{
			makeObjective(SLOLatency, t.cfg.LatencyGoal, durToMS(t.cfg.LatencyTarget), total, slow),
			makeObjective(SLOAvailability, t.cfg.AvailabilityGoal, 0, total, bad),
		},
	}
}

// SetSLO attaches an SLO tracker to the recorder; the serving layer
// feeds it via RecordSLO and /slo and the Prometheus export read it
// back. Nil-safe.
func (r *Recorder) SetSLO(t *SLOTracker) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.slo = t
	r.mu.Unlock()
}

// SLO returns the attached tracker (nil when none). Nil-safe.
func (r *Recorder) SLO() *SLOTracker {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.slo
}

// RecordSLO folds one served request into the attached tracker; a no-op
// without one. Nil-safe.
func (r *Recorder) RecordSLO(latency time.Duration, ok bool) {
	r.SLO().Record(latency, ok)
}

// SLOStatus evaluates the attached tracker, reporting false when none
// is attached. Nil-safe.
func (r *Recorder) SLOStatus() (SLOStatus, bool) {
	t := r.SLO()
	if t == nil {
		return SLOStatus{}, false
	}
	return t.Status(), true
}
