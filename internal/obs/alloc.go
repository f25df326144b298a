package obs

import "runtime/metrics"

// AllocMark is a point-in-time reading of the process's cumulative heap
// allocation counters (runtime/metrics /gc/heap/allocs), cheap enough
// to take at stage boundaries: unlike runtime.ReadMemStats it does not
// stop the world. Marks are process-wide, so a delta attributes every
// allocation the process made between the two reads — for the
// gate-serialised flush paths that is the flush's own work plus a small
// amount of unrelated background (HTTP handlers, the sampler), which is
// the documented precision of the per-stage allocation columns.
type AllocMark struct {
	Bytes   uint64
	Objects uint64
}

// AllocDelta is the allocation activity between two marks.
type AllocDelta struct {
	Bytes   int64
	Objects int64
}

// NowAllocs reads the cumulative allocation counters. Safe for
// concurrent use; each call reads fresh samples.
func NowAllocs() AllocMark {
	s := [2]metrics.Sample{{Name: sampleNames[idxAllocBytes]}, {Name: sampleNames[idxAllocObjs]}}
	metrics.Read(s[:])
	return AllocMark{
		Bytes:   sampleUint64(s[0]),
		Objects: sampleUint64(s[1]),
	}
}

// Since returns the allocation activity between the mark and now.
// Cumulative counters never decrease, so the delta clamps at zero
// defensively rather than going negative.
func (m AllocMark) Since() AllocDelta {
	now := NowAllocs()
	d := AllocDelta{
		Bytes:   int64(now.Bytes - m.Bytes),
		Objects: int64(now.Objects - m.Objects),
	}
	if d.Bytes < 0 {
		d.Bytes = 0
	}
	if d.Objects < 0 {
		d.Objects = 0
	}
	return d
}
