package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"shahin/internal/dataset"
	"shahin/internal/perturb"
)

func key(attr, bin int) dataset.ItemsetKey {
	return dataset.Itemset{dataset.MakeItem(attr, bin)}.Key()
}

// mkSamples builds n samples of a fixed size (2 attrs).
func mkSamples(n int) []perturb.Sample {
	out := make([]perturb.Sample, n)
	for i := range out {
		out[i] = perturb.Sample{
			Row:   []float64{float64(i), 0},
			Items: []dataset.Item{dataset.MakeItem(0, 0), dataset.MakeItem(1, 0)},
			Label: i % 2,
		}
	}
	return out
}

// mkPooled is mkSamples as the repository keeps them.
func mkPooled(n int) []perturb.Pooled {
	s := mkSamples(n)
	out := make([]perturb.Pooled, n)
	for i := range s {
		out[i] = s[i].Pooled()
	}
	return out
}

func sampleBytes() int64 {
	s := mkPooled(1)
	return s[0].Bytes()
}

func TestPutGet(t *testing.T) {
	r := NewRepo(0) // unbounded
	if _, ok := r.Get(key(0, 0)); ok {
		t.Fatal("empty repo returned an entry")
	}
	r.Put(key(0, 0), mkSamples(3))
	got, ok := r.Get(key(0, 0))
	if !ok || len(got) != 3 {
		t.Fatalf("Get=(%d,%v)", len(got), ok)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("HitRate=%g", st.HitRate())
	}
}

func TestPutReplaces(t *testing.T) {
	r := NewRepo(0)
	r.Put(key(0, 0), mkSamples(5))
	r.Put(key(0, 0), mkSamples(2))
	got, _ := r.Get(key(0, 0))
	if len(got) != 2 {
		t.Fatalf("replacement kept %d samples", len(got))
	}
	if r.Len() != 1 {
		t.Fatalf("Len=%d", r.Len())
	}
	want := 2 * sampleBytes()
	if r.Stats().BytesUsed != want {
		t.Fatalf("BytesUsed=%d want %d", r.Stats().BytesUsed, want)
	}
}

func TestAppend(t *testing.T) {
	r := NewRepo(0)
	r.Append(key(0, 0), mkPooled(2))
	r.Append(key(0, 0), mkPooled(3))
	got, _ := r.Get(key(0, 0))
	if len(got) != 5 {
		t.Fatalf("Append total=%d want 5", len(got))
	}
	if r.Stats().BytesUsed != 5*sampleBytes() {
		t.Fatalf("BytesUsed=%d", r.Stats().BytesUsed)
	}
}

func TestLRUEviction(t *testing.T) {
	sb := sampleBytes()
	r := NewRepo(10 * sb) // room for 10 samples
	r.Put(key(0, 0), mkSamples(4))
	r.Put(key(0, 1), mkSamples(4))
	// Touch (0,0) so (0,1) becomes the LRU victim.
	if _, ok := r.Get(key(0, 0)); !ok {
		t.Fatal("missing entry")
	}
	r.Put(key(0, 2), mkSamples(4)) // 12 samples > budget: evict (0,1)
	if r.Contains(key(0, 1)) {
		t.Fatal("LRU entry survived")
	}
	if !r.Contains(key(0, 0)) || !r.Contains(key(0, 2)) {
		t.Fatal("wrong entry evicted")
	}
	if r.Stats().Evictions != 1 {
		t.Fatalf("Evictions=%d", r.Stats().Evictions)
	}
	if r.Stats().BytesUsed > 10*sb {
		t.Fatal("budget exceeded after eviction")
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	sb := sampleBytes()
	r := NewRepo(2 * sb)
	if r.Put(key(0, 0), mkSamples(5)) {
		t.Fatal("oversize entry reported resident")
	}
	if r.Len() != 0 {
		t.Fatal("oversize entry stored")
	}
}

func TestAppendEvictsWhenOverBudget(t *testing.T) {
	sb := sampleBytes()
	r := NewRepo(4 * sb)
	r.Put(key(0, 0), mkSamples(2))
	r.Put(key(0, 1), mkSamples(2))
	// Appending to (0,1) pushes over budget; (0,0) is LRU and must go.
	resident := r.Append(key(0, 1), mkPooled(2))
	if !resident {
		t.Fatal("appended entry not resident")
	}
	if r.Contains(key(0, 0)) {
		t.Fatal("LRU entry survived append eviction")
	}
}

func TestDelete(t *testing.T) {
	r := NewRepo(0)
	r.Put(key(1, 1), mkSamples(2))
	r.Delete(key(1, 1))
	if r.Contains(key(1, 1)) || r.Len() != 0 || r.Stats().BytesUsed != 0 {
		t.Fatal("Delete left state behind")
	}
	r.Delete(key(9, 9)) // deleting a missing key is a no-op
}

func TestKeysMRUOrder(t *testing.T) {
	r := NewRepo(0)
	r.Put(key(0, 0), mkSamples(1))
	r.Put(key(0, 1), mkSamples(1))
	r.Put(key(0, 2), mkSamples(1))
	r.Get(key(0, 0)) // now MRU
	keys := r.Keys()
	if len(keys) != 3 {
		t.Fatalf("Keys len=%d", len(keys))
	}
	if keys[0] != key(0, 0) {
		t.Fatalf("MRU key=%v", keys[0].Itemset())
	}
	if keys[2] != key(0, 1) {
		t.Fatalf("LRU key=%v", keys[2].Itemset())
	}
}

func TestStatsZeroTraffic(t *testing.T) {
	r := NewRepo(100)
	if r.Stats().HitRate() != 0 {
		t.Fatal("HitRate without traffic should be 0")
	}
}

func TestInvariants(t *testing.T) {
	iv := NewInvariants(2)
	rr, known := iv.Lookup(key(0, 0))
	if known {
		t.Fatal("fresh rule reported known")
	}
	if rr.Precision(0) != 0 || rr.Precision(1) != 0 {
		t.Fatal("untried rule has precision")
	}
	rr.AddTrials([]int{1, 9})
	rr.Coverage = 0.4
	rr.HasCoverage = true

	again, known := iv.Lookup(key(0, 0))
	if !known {
		t.Fatal("memoised rule reported unknown")
	}
	if again.Precision(1) != 0.9 || again.Precision(0) != 0.1 {
		t.Fatalf("per-class precision wrong: %+v", again)
	}
	if again.Pulls != 10 || again.Coverage != 0.4 {
		t.Fatalf("memoised state lost: %+v", again)
	}
	if iv.Len() != 1 {
		t.Fatalf("Len=%d", iv.Len())
	}
	if iv.HitRate() != 0.5 {
		t.Fatalf("HitRate=%g", iv.HitRate())
	}
}

func TestInvariantsAccumulate(t *testing.T) {
	iv := NewInvariants(3)
	rr, _ := iv.Lookup(key(1, 0))
	rr.AddTrials([]int{2, 3, 5})
	rr.AddTrials([]int{0, 1, 0})
	if rr.Pulls != 11 {
		t.Fatalf("Pulls=%d want 11", rr.Pulls)
	}
	if rr.Precision(1) != 4.0/11 {
		t.Fatalf("Precision(1)=%g", rr.Precision(1))
	}
}

// TestPutKeepsBins: Put stores each sample as its items' bins and label,
// charged at what that holds — two bytes a bin and a 32-byte header.
func TestPutKeepsBins(t *testing.T) {
	r := NewRepo(0)
	in := []perturb.Sample{
		{Row: []float64{1, 2, 3}, Items: []dataset.Item{dataset.MakeItem(0, 7), dataset.MakeItem(1, 1<<16-1), dataset.MakeItem(2, 256)}, Label: 4},
		{Items: []dataset.Item{dataset.MakeItem(0, 0), dataset.MakeItem(1, 3), dataset.MakeItem(2, 1)}, Label: 0},
	}
	r.Put(key(0, 7), in)
	got, _ := r.Get(key(0, 7))
	for i, s := range in {
		for a, it := range s.Items {
			if int(got[i].Bins[a]) != it.Bin() {
				t.Fatalf("sample %d attribute %d: bin %d, item %v", i, a, got[i].Bins[a], it)
			}
		}
		if got[i].Label != s.Label {
			t.Fatalf("sample %d: label %d want %d", i, got[i].Label, s.Label)
		}
	}
	if used := r.Stats().BytesUsed; used != 2*(3*2+32) {
		t.Fatalf("BytesUsed %d want %d", used, 2*(3*2+32))
	}
}

func TestInvariantsZeroTraffic(t *testing.T) {
	if NewInvariants(2).HitRate() != 0 {
		t.Fatal("HitRate without traffic should be 0")
	}
}

// Model-based property test: a random sequence of Put/Append/Get/Delete
// against the Repo must agree with a naive reference implementation, and
// byte accounting must track exactly.
func TestQuickRepoMatchesReference(t *testing.T) {
	type refEntry struct {
		samples []perturb.Pooled
	}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRepo(0) // unbounded: reference has no eviction
		ref := map[dataset.ItemsetKey]*refEntry{}
		keys := []dataset.ItemsetKey{key(0, 0), key(0, 1), key(1, 0), key(2, 3)}
		for step := 0; step < 200; step++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(4) {
			case 0: // Put
				n := rng.Intn(4)
				r.Put(k, mkSamples(n))
				ref[k] = &refEntry{samples: mkPooled(n)}
				if n == 0 {
					// empty entries are legal
					ref[k] = &refEntry{}
				}
			case 1: // Append
				n := 1 + rng.Intn(3)
				s := mkPooled(n)
				r.Append(k, s)
				if e, ok := ref[k]; ok {
					e.samples = append(e.samples, s...)
				} else {
					ref[k] = &refEntry{samples: s}
				}
			case 2: // Get
				got, ok := r.Get(k)
				e, refOK := ref[k]
				if ok != refOK {
					return false
				}
				if ok && len(got) != len(e.samples) {
					return false
				}
			case 3: // Delete
				r.Delete(k)
				delete(ref, k)
			}
			if r.Len() != len(ref) {
				return false
			}
			var wantBytes int64
			for _, e := range ref {
				for i := range e.samples {
					wantBytes += e.samples[i].Bytes()
				}
			}
			if r.Stats().BytesUsed != wantBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any budget and op sequence, BytesUsed never exceeds the
// budget after an operation completes.
func TestQuickRepoRespectsBudget(t *testing.T) {
	sb := sampleBytes()
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := sb * int64(1+rng.Intn(10))
		r := NewRepo(budget)
		for step := 0; step < 150; step++ {
			k := key(rng.Intn(3), rng.Intn(3))
			if rng.Intn(2) == 0 {
				r.Put(k, mkSamples(1+rng.Intn(5)))
			} else {
				r.Append(k, mkPooled(1+rng.Intn(3)))
			}
			if r.Stats().BytesUsed > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
