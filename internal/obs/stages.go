package obs

import (
	"encoding/json"
	"time"
)

// Per-request latency-attribution stage names, as they appear in span
// dumps, stage histograms, and JSON breakdowns. Together the five
// stages account for (nearly all of) a served request's wall latency:
// queue_wait and batch_assembly are charged by the serving layer,
// pool_sample / classify / solve by the core explainer.
const (
	// StageQueueWait is time spent waiting at the warm explainer's
	// flush gate before the request's call began.
	StageQueueWait = "queue_wait"
	// StageBatchAssembly is the serving residue: the call's re-mines and
	// span work, admission, store writes — time no core stage claims.
	StageBatchAssembly = "batch_assembly"
	// StagePoolSample is time retrieving pooled perturbation samples
	// for this tuple.
	StagePoolSample = "pool_sample"
	// StageClassify is cumulative in-classifier time for this tuple's
	// Predict calls, fault-chain retries included.
	StageClassify = "classify"
	// StageSolve is the remainder of the tuple's explanation time:
	// the solver/aggregation work around sampling and classification.
	StageSolve = "solve"
)

// Histogram names for the per-stage latency distributions (nanosecond
// observations, one per request per non-zero stage).
const (
	// HistStageQueueWait is the distribution of StageQueueWait.
	HistStageQueueWait = "stage_queue_wait_ns"
	// HistStageBatchAssembly is the distribution of StageBatchAssembly.
	HistStageBatchAssembly = "stage_batch_assembly_ns"
	// HistStagePoolSample is the distribution of StagePoolSample.
	HistStagePoolSample = "stage_pool_sample_ns"
	// HistStageClassify is the distribution of StageClassify.
	HistStageClassify = "stage_classify_ns"
	// HistStageSolve is the distribution of StageSolve.
	HistStageSolve = "stage_solve_ns"
)

// StageBreakdown is one request's latency attribution: how its wall
// time divides across the serving stages. Zero fields mean the stage
// did not occur (a store hit has only Solve; a request that timed out
// has none). It marshals as milliseconds so HTTP clients read it
// directly.
type StageBreakdown struct {
	// QueueWait — see StageQueueWait.
	QueueWait time.Duration
	// BatchAssembly — see StageBatchAssembly.
	BatchAssembly time.Duration
	// PoolSample — see StagePoolSample.
	PoolSample time.Duration
	// Classify — see StageClassify.
	Classify time.Duration
	// Solve — see StageSolve.
	Solve time.Duration
}

// stageShare is one stage of a breakdown: its span name, its histogram
// and its duration.
type stageShare struct {
	name, hist string
	d          time.Duration
}

// each lists b's stages in pipeline order: the one statement of that
// order.
func (b StageBreakdown) each() [5]stageShare {
	return [5]stageShare{
		{StageQueueWait, HistStageQueueWait, b.QueueWait},
		{StageBatchAssembly, HistStageBatchAssembly, b.BatchAssembly},
		{StagePoolSample, HistStagePoolSample, b.PoolSample},
		{StageClassify, HistStageClassify, b.Classify},
		{StageSolve, HistStageSolve, b.Solve},
	}
}

// Total sums the attributed stages; comparing it to wall latency gives
// the attribution coverage ratio the serving benchmark asserts on.
func (b StageBreakdown) Total() time.Duration {
	var sum time.Duration
	for _, st := range b.each() {
		sum += st.d
	}
	return sum
}

// IsZero reports whether no stage was attributed.
func (b StageBreakdown) IsZero() bool {
	return b == StageBreakdown{}
}

// stageBreakdownJSON is the wire shape: stage milliseconds.
type stageBreakdownJSON struct {
	QueueWaitMS     float64 `json:"queue_wait_ms"`
	BatchAssemblyMS float64 `json:"batch_assembly_ms"`
	PoolSampleMS    float64 `json:"pool_sample_ms"`
	ClassifyMS      float64 `json:"classify_ms"`
	SolveMS         float64 `json:"solve_ms"`
}

// durToMS is the one duration-to-milliseconds conversion; every *_ms
// field obs writes goes through it.
func durToMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msToDur converts from the wire shape.
func msToDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// MarshalJSON renders the breakdown as per-stage milliseconds.
func (b StageBreakdown) MarshalJSON() ([]byte, error) {
	return json.Marshal(stageBreakdownJSON{
		QueueWaitMS:     durToMS(b.QueueWait),
		BatchAssemblyMS: durToMS(b.BatchAssembly),
		PoolSampleMS:    durToMS(b.PoolSample),
		ClassifyMS:      durToMS(b.Classify),
		SolveMS:         durToMS(b.Solve),
	})
}

// UnmarshalJSON parses the per-stage-milliseconds wire shape.
func (b *StageBreakdown) UnmarshalJSON(data []byte) error {
	var w stageBreakdownJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*b = StageBreakdown{
		QueueWait:     msToDur(w.QueueWaitMS),
		BatchAssembly: msToDur(w.BatchAssemblyMS),
		PoolSample:    msToDur(w.PoolSampleMS),
		Classify:      msToDur(w.ClassifyMS),
		Solve:         msToDur(w.SolveMS),
	}
	return nil
}

// ObserveStages records each non-zero stage of a breakdown into its
// stage histogram. The serving layer calls it with the queue stages,
// the core explainer with the per-tuple stages, so no stage is double
// counted. Nil-safe.
func (r *Recorder) ObserveStages(b StageBreakdown) {
	if r == nil {
		return
	}
	for _, st := range b.each() {
		if st.d > 0 {
			r.Histogram(st.hist).Observe(st.d)
		}
	}
}
