package obs

import "testing"

// allocTestSink keeps test allocations live so the runtime counters
// NowAllocs reads actually move.
var allocTestSink [][]byte

// TestNowAllocs: the MemStats-delta marks must report monotonic,
// nonzero growth across a deliberate allocation burst.
func TestNowAllocs(t *testing.T) {
	mark := NowAllocs()
	if mark.Bytes == 0 || mark.Objects == 0 {
		t.Fatalf("initial mark empty: %+v", mark)
	}
	for i := 0; i < 100; i++ {
		allocTestSink = append(allocTestSink, make([]byte, 16<<10))
	}
	d := mark.Since()
	if d.Bytes <= 0 || d.Objects <= 0 {
		t.Fatalf("delta after allocating: %+v", d)
	}
	// runtime/metrics allocation counters are flushed from per-P caches
	// lazily, so the delta can run slightly behind the exact total; half
	// the deliberate burst is a safe floor.
	if d.Bytes < 100*16<<10/2 {
		t.Errorf("delta bytes %d < half the %d deliberately allocated", d.Bytes, 100*16<<10)
	}
}
