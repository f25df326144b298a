package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"shahin/internal/core"
	"shahin/internal/dataset"
	"shahin/internal/explain"
)

func attribution(class int, w ...float64) core.Explanation {
	return core.Explanation{Attribution: &explain.Attribution{Weights: w, Class: class}}
}

func rule(class int) core.Explanation {
	return core.Explanation{Rule: &explain.Rule{
		Items:     dataset.Itemset{dataset.MakeItem(0, 1)},
		Class:     class,
		Precision: 0.96,
		Coverage:  0.3,
	}}
}

func TestPutGet(t *testing.T) {
	s := New()
	tup := []float64{1, 2.5, 0}
	if _, ok := s.Get(tup); ok {
		t.Fatal("empty store hit")
	}
	s.Put(tup, attribution(1, 0.5, -0.1, 0))
	got, ok := s.Get(tup)
	if !ok || got.Attribution == nil || got.Attribution.Class != 1 {
		t.Fatalf("Get=(%+v,%v)", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d", s.Len())
	}
	// A near-but-not-equal tuple must miss.
	if _, ok := s.Get([]float64{1, 2.5000001, 0}); ok {
		t.Fatal("near-miss tuple hit")
	}
}

func TestPutReplaces(t *testing.T) {
	s := New()
	tup := []float64{3, 4}
	s.Put(tup, attribution(0, 0.1, 0.2))
	s.Put(tup, attribution(1, 0.9, 0.8))
	got, _ := s.Get(tup)
	if got.Attribution.Class != 1 {
		t.Fatal("replacement lost")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d after replace", s.Len())
	}
}

func TestPutCopiesTuple(t *testing.T) {
	s := New()
	tup := []float64{7, 8}
	s.Put(tup, attribution(0, 1, 2))
	tup[0] = 99
	if _, ok := s.Get([]float64{7, 8}); !ok {
		t.Fatal("store aliased the caller's slice")
	}
}

func TestBuild(t *testing.T) {
	tuples := [][]float64{{1, 0}, {2, 0}, {3, 0}}
	exps := []core.Explanation{attribution(0, 1, 0), rule(1), attribution(1, 0, 1)}
	s, err := Build(tuples, exps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len=%d", s.Len())
	}
	got, ok := s.Get([]float64{2, 0})
	if !ok || got.Rule == nil || got.Rule.Precision != 0.96 {
		t.Fatalf("rule entry lost: %+v", got)
	}
	if _, err := Build(tuples, exps[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestNaNTuples(t *testing.T) {
	s := New()
	nan := math.NaN()
	s.Put([]float64{nan, 1}, attribution(0, 1, 1))
	if _, ok := s.Get([]float64{nan, 1}); !ok {
		t.Fatal("NaN tuple not retrievable")
	}
	if _, ok := s.Get([]float64{nan, 2}); ok {
		t.Fatal("wrong NaN tuple hit")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	tuples := make([][]float64, 50)
	for i := range tuples {
		tuples[i] = []float64{float64(i), rng.NormFloat64()}
		if i%2 == 0 {
			s.Put(tuples[i], attribution(i%2, rng.Float64(), rng.Float64()))
		} else {
			s.Put(tuples[i], rule(i%2))
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 {
		t.Fatalf("round trip Len=%d", back.Len())
	}
	for i, tup := range tuples {
		got, ok := back.Get(tup)
		if !ok {
			t.Fatalf("tuple %d lost", i)
		}
		if i%2 == 1 && (got.Rule == nil || got.Rule.Items[0] != dataset.MakeItem(0, 1)) {
			t.Fatalf("tuple %d rule corrupted: %+v", i, got.Rule)
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("Load(junk) should fail")
	}
}

// Property: whatever was Put is Get-able, and random other tuples miss.
func TestQuickStore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 1 + rng.Intn(40)
		tuples := make([][]float64, n)
		for i := range tuples {
			tuples[i] = []float64{float64(rng.Intn(5)), float64(rng.Intn(5)), rng.Float64()}
			s.Put(tuples[i], attribution(i%2, 1))
		}
		for _, tup := range tuples {
			if _, ok := s.Get(tup); !ok {
				return false
			}
		}
		// A tuple with an extra dimension must always miss.
		_, ok := s.Get(append(append([]float64(nil), tuples[0]...), 1))
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotHeaderValidation: the headered format rejects corrupt,
// stale, truncated, and legacy snapshots with distinct, clear errors.
func TestSnapshotHeaderValidation(t *testing.T) {
	s := New()
	s.Put([]float64{1, 2}, attribution(0, 0.5, 0.5))
	s.Put([]float64{3, 4}, rule(1))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("round trip", func(t *testing.T) {
		back, err := Load(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != 2 {
			t.Fatalf("Len=%d", back.Len())
		}
	})

	t.Run("byte stable", func(t *testing.T) {
		var again bytes.Buffer
		if err := s.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(good, again.Bytes()) {
			t.Fatal("two saves of identical contents differ")
		}
	})

	t.Run("corrupt payload", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xff
		_, err := Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("flipped payload byte: err=%v, want checksum mismatch", err)
		}
	})

	t.Run("stale schema version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(bad[4:8], SnapshotVersion+7)
		_, err := Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "schema version") {
			t.Fatalf("bumped version: err=%v, want schema version error", err)
		}
	})

	t.Run("legacy headerless gob", func(t *testing.T) {
		// A pre-header snapshot is a bare gob stream; it must be named
		// as such, not fed to the decoder.
		var legacy bytes.Buffer
		p := persisted{Entries: []entry{{Row: []float64{1}, Exp: rule(0)}}}
		if err := gob.NewEncoder(&legacy).Encode(&p); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&legacy)
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("legacy gob: err=%v, want magic error", err)
		}
	})

	t.Run("truncated payload", func(t *testing.T) {
		_, err := Load(bytes.NewReader(good[:len(good)-5]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated: err=%v, want truncated error", err)
		}
	})

	t.Run("short header", func(t *testing.T) {
		_, err := Load(bytes.NewReader(good[:10]))
		if err == nil || !strings.Contains(err.Error(), "header") {
			t.Fatalf("short header: err=%v, want header error", err)
		}
	})

	t.Run("fingerprint matches header", func(t *testing.T) {
		want := binary.BigEndian.Uint64(good[16:24])
		if got := Fingerprint(good[headerLen:]); got != want {
			t.Fatalf("Fingerprint=%#x, header says %#x", got, want)
		}
	})
}

// frame puts a snapshot header declaring size payload bytes in front of
// payload, checksummed over payload as Save does.
func frame(payload []byte, size uint64) []byte {
	var hdr [headerLen]byte
	copy(hdr[:4], snapshotMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], SnapshotVersion)
	binary.BigEndian.PutUint64(hdr[8:16], size)
	binary.BigEndian.PutUint64(hdr[16:24], Fingerprint(payload))
	return append(hdr[:], payload...)
}

// TestLoadRefusesUndeliveredLength: a header alone declaring 8 GiB, the
// cap, is a truncated snapshot — refused without allocating the claim.
func TestLoadRefusesUndeliveredLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(frame(nil, 1<<33)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err=%v, want the truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a payload that never arrived", got)
	}
}

// FuzzStoreLoad frames fuzzed payload bytes twice: with a correct header,
// so gob decoding itself is fuzzed (FNV is no MAC: the checksum is
// recomputed), and with a length claim other than what follows. Load
// never panics; a claim longer than the payload is refused as truncated
// (or over the cap); and a store Load accepts saves to bytes that load
// and save back identically.
func FuzzStoreLoad(f *testing.F) {
	s := New()
	s.Put([]float64{1, math.NaN()}, attribution(1, 0.5, -0.25))
	s.Put([]float64{-0.0, 3}, rule(0))
	var good bytes.Buffer
	if err := s.Save(&good); err != nil {
		f.Fatal(err)
	}
	payload := good.Bytes()[headerLen:]
	f.Add(payload, uint64(len(payload)+1))
	f.Add(payload, uint64(1<<33))
	f.Add(payload[:len(payload)/2], uint64(0))
	f.Add([]byte{}, uint64(1<<40))

	f.Fuzz(func(t *testing.T, payload []byte, claim uint64) {
		if claim != uint64(len(payload)) {
			_, err := Load(bytes.NewReader(frame(payload, claim)))
			if claim > uint64(len(payload)) && (err == nil || !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "cap")) {
				t.Fatalf("claim %d over a %d-byte payload: err=%v, want truncated or over the cap", claim, len(payload), err)
			}
		}
		st, err := Load(bytes.NewReader(frame(payload, uint64(len(payload)))))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := st.Save(&once); err != nil {
			t.Fatalf("saving an accepted store: %v", err)
		}
		back, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a saved store does not load: %v", err)
		}
		if err := back.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("save → load → save is not byte-stable (%d vs %d bytes)", once.Len(), twice.Len())
		}
	})
}
