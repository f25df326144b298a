// Package store implements the pre-computed explanation store the paper's
// introduction motivates: "an organization might pre-compute all the
// explanations in a batch setting and retrieve them as needed". It maps
// raw tuples to their explanations with exact-match lookup and gob
// persistence, so a nightly Shahin batch run can serve explanation
// requests at memory-lookup latency during the day.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"shahin/internal/core"
)

// Store is an in-memory tuple → explanation map. The zero value is
// unusable; create one with New or Build.
type Store struct {
	buckets map[uint64][]entry
	n       int
}

type entry struct {
	Row []float64
	Exp core.Explanation
}

// New returns an empty store.
func New() *Store {
	return &Store{buckets: make(map[uint64][]entry)}
}

// Build creates a store from parallel slices of tuples and explanations,
// as produced by Batch.ExplainAll.
func Build(tuples [][]float64, exps []core.Explanation) (*Store, error) {
	if len(tuples) != len(exps) {
		return nil, fmt.Errorf("store: %d tuples for %d explanations", len(tuples), len(exps))
	}
	s := New()
	for i := range tuples {
		s.Put(tuples[i], exps[i])
	}
	return s, nil
}

// Put inserts (or replaces) the explanation for a tuple. The tuple is
// copied.
func (s *Store) Put(tuple []float64, exp core.Explanation) {
	h := hashRow(tuple)
	chain := s.buckets[h]
	for i := range chain {
		if equalRows(chain[i].Row, tuple) {
			chain[i].Exp = exp
			return
		}
	}
	s.buckets[h] = append(chain, entry{Row: append([]float64(nil), tuple...), Exp: exp})
	s.n++
}

// Get retrieves the explanation for an exactly matching tuple.
func (s *Store) Get(tuple []float64) (core.Explanation, bool) {
	for _, e := range s.buckets[hashRow(tuple)] {
		if equalRows(e.Row, tuple) {
			return e.Exp, true
		}
	}
	return core.Explanation{}, false
}

// Len returns the number of stored explanations.
func (s *Store) Len() int { return s.n }

// hashRow is FNV-1a over the IEEE-754 bits of the cells, so lookup treats
// tuples as exact value vectors (NaNs normalise to one pattern).
func hashRow(row []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range row {
		bits := math.Float64bits(v)
		if v != v { // normalise NaN payloads
			bits = math.Float64bits(math.NaN())
		}
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:]) //shahinvet:allow errcheck — hash.Hash.Write never fails
	}
	return h.Sum64()
}

func equalRows(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// persisted is the gob wire format.
type persisted struct {
	Entries []entry
}

// SnapshotVersion is the schema version stamped into every snapshot
// header. Bump it whenever the gob wire format changes incompatibly;
// Load rejects snapshots written under any other version instead of
// decoding garbage.
const SnapshotVersion uint32 = 1

// snapshotMagic opens every snapshot so Load can tell a headered
// snapshot from a legacy (pre-header) gob stream or arbitrary bytes.
var snapshotMagic = [4]byte{'S', 'H', 'S', 'T'}

// headerLen is magic(4) + version(4) + payload length(8) + checksum(8).
const headerLen = 4 + 4 + 8 + 8

// Fingerprint returns the FNV-64a checksum Save stamps into the
// snapshot header, computed over the gob payload bytes. Callers
// shipping snapshots over the network can use it to label or verify a
// payload without decoding it.
func Fingerprint(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload) //shahinvet:allow errcheck — hash.Hash.Write never fails
	return h.Sum64()
}

// Save serialises the store: a fixed header (magic, schema version,
// payload length, FNV-64a checksum) followed by the gob payload.
// Entries are sorted by tuple so the byte stream is identical for
// identical contents — map iteration order must not leak into
// persisted artifacts.
func (s *Store) Save(w io.Writer) error {
	var p persisted
	for _, chain := range s.buckets {
		p.Entries = append(p.Entries, chain...)
	}
	sortEntries(p.Entries)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		return fmt.Errorf("store: encoding: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:4], snapshotMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], SnapshotVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.BigEndian.PutUint64(hdr[16:24], Fingerprint(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("store: writing snapshot payload: %w", err)
	}
	return nil
}

// sortEntries orders entries by their tuple's IEEE-754 bit patterns
// (cell by cell, shorter rows first), a total order even with NaNs.
func sortEntries(entries []entry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Row, entries[j].Row
		for k := 0; k < len(a) && k < len(b); k++ {
			ab, bb := math.Float64bits(a[k]), math.Float64bits(b[k])
			if ab != bb {
				return ab < bb
			}
		}
		return len(a) < len(b)
	})
}

// Load deserialises a store written by Save, validating the header
// before decoding: wrong magic (legacy or corrupt snapshots), a
// mismatched schema version, a truncated payload, and a checksum
// mismatch each fail with a distinct, clear error instead of
// gob-decoding garbage.
func Load(r io.Reader) (*Store, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: snapshot shorter than its %d-byte header (corrupt or truncated): %w", headerLen, err)
	}
	if !bytes.Equal(hdr[:4], snapshotMagic[:]) {
		return nil, fmt.Errorf("store: snapshot missing magic %q: not a shahin store snapshot (legacy pre-v%d format or corrupt file)", snapshotMagic, SnapshotVersion)
	}
	version := binary.BigEndian.Uint32(hdr[4:8])
	if version != SnapshotVersion {
		return nil, fmt.Errorf("store: snapshot schema version %d, this binary reads version %d: refusing stale snapshot", version, SnapshotVersion)
	}
	size := binary.BigEndian.Uint64(hdr[8:16])
	const maxSnapshotBytes = 1 << 33 // 8 GiB sanity cap on the declared length
	if size > maxSnapshotBytes {
		return nil, fmt.Errorf("store: snapshot declares %d payload bytes (over the %d-byte cap): corrupt header", size, uint64(maxSnapshotBytes))
	}
	want := binary.BigEndian.Uint64(hdr[16:24])
	// The buffer grows with what arrives, never to a length only claimed:
	// the header may come from a peer's /snapshot answer.
	payload, err := io.ReadAll(io.LimitReader(r, int64(size)))
	if err == nil && uint64(len(payload)) < size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("store: snapshot truncated: header declares %d payload bytes: %w", size, err)
	}
	if got := Fingerprint(payload); got != want {
		return nil, fmt.Errorf("store: snapshot checksum mismatch: header %#016x, payload %#016x: corrupt snapshot", want, got)
	}
	var p persisted
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&p); err != nil {
		return nil, fmt.Errorf("store: decoding: %w", err)
	}
	s := New()
	for _, e := range p.Entries {
		s.Put(e.Row, e.Exp)
	}
	return s, nil
}
