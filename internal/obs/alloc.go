package obs

import "runtime/metrics"

// AllocMark is a point-in-time reading of the process's cumulative heap
// allocation counters (runtime/metrics /gc/heap/allocs), cheap enough
// to take at stage boundaries: unlike runtime.ReadMemStats it does not
// stop the world. Marks are process-wide, so a delta attributes every
// allocation the process made between the two reads — for the
// gate-serialised flush paths that is the flush's own work plus a small
// amount of unrelated background (HTTP handlers), which is the
// documented precision of the per-stage allocation columns.
type AllocMark struct {
	Bytes   uint64
	Objects uint64
}

// AllocDelta is the allocation activity between two marks.
type AllocDelta struct {
	Bytes   int64
	Objects int64
}

// The runtime/metrics samples NowAllocs reads, by read position.
const (
	idxAllocBytes = iota
	idxAllocObjs
)

var sampleNames = []string{
	idxAllocBytes: "/gc/heap/allocs:bytes",
	idxAllocObjs:  "/gc/heap/allocs:objects",
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

// sampleUint64 reads a numeric sample defensively: both kinds NowAllocs
// reads are KindUint64 today, but a kind change in a future runtime must
// not panic it.
func sampleUint64(s metrics.Sample) uint64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return s.Value.Uint64()
	case metrics.KindFloat64:
		if v := s.Value.Float64(); v > 0 {
			return uint64(v)
		}
	}
	return 0
}
