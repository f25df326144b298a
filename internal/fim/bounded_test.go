package fim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
)

// twin is the first 1 000 itemised rows of one twin; a window of n rows
// is a prefix.
type twin struct {
	name string
	rows []dataset.Itemset
}

func twins(t testing.TB) []twin {
	t.Helper()
	var out []twin
	for _, name := range datagen.Names() {
		cfg, err := datagen.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := cfg.Generate(1000, 91)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dataset.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		tw := twin{name: name}
		for _, row := range d.Rows(0, 1000) {
			tw.rows = append(tw.rows, dataset.Itemset(st.ItemizeRow(row, nil)))
		}
		out = append(out, tw)
	}
	return out
}

// checkPrefix fails unless got is the first keep entries of want (all
// of it when keep is 0), supports compared by bits.
func checkPrefix(t *testing.T, what string, got, want []Mined, keep int) {
	t.Helper()
	if keep > 0 {
		want = want[:min(keep, len(want))]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference prefix has %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Set, w.Set) || g.Count != w.Count || math.Float64bits(g.Support) != math.Float64bits(w.Support) {
			t.Fatalf("%s[%d] = %v/%d/%v, reference %v/%d/%v", what, i, g.Set, g.Count, g.Support, w.Set, w.Count, w.Support)
		}
	}
}

// checkMatchesReference mines rows with cfg and fails unless the answer
// is the reference's prefixes.
func checkMatchesReference(t *testing.T, rows []dataset.Itemset, cfg Config, ref *Result) {
	t.Helper()
	got, err := Mine(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != ref.Rows {
		t.Fatalf("%+v: Rows %d, reference %d", cfg, got.Rows, ref.Rows)
	}
	checkPrefix(t, fmt.Sprintf("%+v Frequent", cfg), got.Frequent, ref.Frequent, cfg.Keep)
	checkPrefix(t, fmt.Sprintf("%+v Border", cfg), got.Border, ref.Border, cfg.KeepBorder)
}

// TestMineMatchesReference: on every twin, window, support and border
// setting, each Keep/KeepBorder bound returns exactly the reference's
// prefixes. MaxLen and MaxPerLevel are refresh's.
func TestMineMatchesReference(t *testing.T) {
	keeps := []int{0, 1, 13, 200}
	for _, tw := range twins(t) {
		for _, n := range []int{20, 100, 1000} {
			for _, sup := range []float64{0.05, 0.1, 0.3} {
				for _, border := range []bool{false, true} {
					cfg := Config{MinSupport: sup, MaxLen: 3, WithBorder: border, MaxPerLevel: 800}
					ref, err := referenceMine(tw.rows[:n], cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, keep := range keeps {
						for _, keepBorder := range keeps {
							cfg.Keep, cfg.KeepBorder = keep, keepBorder
							t.Run(fmt.Sprintf("%s/%d/%g/%v/%d/%d", tw.name, n, sup, border, keep, keepBorder), func(t *testing.T) {
								checkMatchesReference(t, tw.rows[:n], cfg, ref)
							})
						}
					}
				}
			}
		}
	}
}

// TestMineKeepAllocs: mining refresh's prefixes on a stream-sized or a
// batch-sized window allocates at most an eighth of what the reference
// does, and no more than a mine told to stop at the level that fills
// both prefixes: levels nobody reads cost nothing.
func TestMineKeepAllocs(t *testing.T) {
	for _, tw := range twins(t) {
		for _, n := range []int{100, 1000} {
			rows := tw.rows[:n]
			cfg := Config{MinSupport: math.Max(0.1, 5/float64(n)), MaxLen: 3, WithBorder: true, MaxPerLevel: 800}
			ref, err := referenceMine(rows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			refAllocs := testing.AllocsPerRun(1, func() { _, _ = referenceMine(rows, cfg) })
			cfg.Keep, cfg.KeepBorder = 200, 200
			read := cfg
			read.MaxLen = min(cfg.MaxLen, max(lastLen(ref.Frequent, cfg.Keep), lastLen(ref.Border, cfg.KeepBorder)))
			got := testing.AllocsPerRun(5, func() { _, _ = Mine(rows, cfg) })
			stopped := testing.AllocsPerRun(5, func() { _, _ = Mine(rows, read) })
			t.Logf("%s/%d: levels read %d of %d; %.0f allocations, reference %.0f (%.3f)",
				tw.name, n, read.MaxLen, cfg.MaxLen, got, refAllocs, got/refAllocs)
			if got > refAllocs/8 {
				t.Errorf("%s/%d: %.0f allocations, more than an eighth of the reference's %.0f", tw.name, n, got, refAllocs)
			}
			if got > stopped {
				t.Errorf("%s/%d: %.0f allocations, %.0f when told to stop at level %d", tw.name, n, got, stopped, read.MaxLen)
			}
		}
	}
}

// lastLen is the length of the last itemset a prefix of keep reads, or
// the longest possible when the prefix is not full.
func lastLen(ms []Mined, keep int) int {
	if len(ms) < keep {
		return dataset.MaxItemsetLen
	}
	return len(ms[keep-1].Set)
}

// BenchmarkMineKeep mines refresh's prefixes on each twin's stream- and
// batch-sized window, beside the reference's complete answer:
// go test -run '^$' -bench MineKeep ./internal/fim
func BenchmarkMineKeep(b *testing.B) {
	for _, tw := range twins(b) {
		for _, n := range []int{100, 1000} {
			rows := tw.rows[:n]
			cfg := Config{MinSupport: math.Max(0.1, 5/float64(n)), MaxLen: 3, WithBorder: true, MaxPerLevel: 800}
			b.Run(fmt.Sprintf("%s/%d/reference", tw.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					_, _ = referenceMine(rows, cfg)
				}
			})
			bounded := cfg
			bounded.Keep, bounded.KeepBorder = 200, 200
			b.Run(fmt.Sprintf("%s/%d/bounded", tw.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					_, _ = Mine(rows, bounded)
				}
			})
		}
	}
}
