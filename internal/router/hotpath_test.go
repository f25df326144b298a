package router

import "testing"

// TestHotpathAllocs: the two per-request routing steps — hashing a
// tuple's items and finding its owner on a production-shaped ring (3
// replicas at the default vnode density) — allocate nothing.
func TestHotpathAllocs(t *testing.T) {
	items := testStats(t).ItemizeRow([]float64{1, 2, 3, 0.25}, nil)
	ring := NewRing(3, DefaultVNodes)
	var sig uint64
	var owner int
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"router.Signature", func() { sig = Signature(items) }},
		{"router.(*Ring).Lookup", func() { owner = ring.Lookup(sig) }},
	} {
		if n := testing.AllocsPerRun(200, tc.run); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", tc.name, n)
		}
	}
	_ = owner
}
