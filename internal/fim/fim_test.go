package fim

import (
	"math/rand"
	"sort"
	"testing"

	"shahin/internal/dataset"
)

// it is shorthand for building items in tests.
func it(attr, bin int) dataset.Item { return dataset.MakeItem(attr, bin) }

// trans builds transactions from per-row (attr, bin) pairs over 4 attrs.
func rows4(bins ...[4]int) []dataset.Itemset {
	out := make([]dataset.Itemset, len(bins))
	for i, b := range bins {
		out[i] = dataset.Itemset{it(0, b[0]), it(1, b[1]), it(2, b[2]), it(3, b[3])}
	}
	return out
}

func findSet(ms []Mined, want dataset.Itemset) *Mined {
	for i := range ms {
		if len(ms[i].Set) != len(want) {
			continue
		}
		match := true
		for j := range want {
			if ms[i].Set[j] != want[j] {
				match = false
				break
			}
		}
		if match {
			return &ms[i]
		}
	}
	return nil
}

func TestMineConfigErrors(t *testing.T) {
	rows := rows4([4]int{0, 0, 0, 0})
	for name, cfg := range map[string]Config{
		"zero support": {MinSupport: 0},
		"over one":     {MinSupport: 1.5},
		"neg maxlen":   {MinSupport: 0.5, MaxLen: -1},
		"huge maxlen":  {MinSupport: 0.5, MaxLen: dataset.MaxItemsetLen + 1},
	} {
		if _, err := Mine(rows, cfg); err == nil {
			t.Errorf("config %q should be rejected", name)
		}
	}
}

func TestMineEmpty(t *testing.T) {
	res, err := Mine(nil, Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) != 0 || len(res.Border) != 0 {
		t.Fatal("mining nothing produced itemsets")
	}
}

func TestMineKnownSupports(t *testing.T) {
	// 10 transactions; item (0,0) appears in 8, (1,1) in 6, both together
	// in 5; (2,*) is scattered; attr 3 constant.
	rows := rows4(
		[4]int{0, 1, 0, 0},
		[4]int{0, 1, 1, 0},
		[4]int{0, 1, 2, 0},
		[4]int{0, 1, 3, 0},
		[4]int{0, 1, 4, 0},
		[4]int{0, 0, 5, 0},
		[4]int{0, 0, 6, 0},
		[4]int{0, 0, 7, 0},
		[4]int{1, 1, 8, 0},
		[4]int{1, 2, 9, 0},
	)
	res, err := Mine(rows, Config{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m := findSet(res.Frequent, dataset.Itemset{it(0, 0)}); m == nil || m.Count != 8 {
		t.Fatalf("item (0,0): %+v", m)
	}
	if m := findSet(res.Frequent, dataset.Itemset{it(1, 1)}); m == nil || m.Count != 6 {
		t.Fatalf("item (1,1): %+v", m)
	}
	if m := findSet(res.Frequent, dataset.Itemset{it(3, 0)}); m == nil || m.Count != 10 {
		t.Fatalf("item (3,0): %+v", m)
	}
	if m := findSet(res.Frequent, dataset.Itemset{it(0, 0), it(1, 1)}); m == nil || m.Count != 5 {
		t.Fatalf("pair (0,0)(1,1): %+v", m)
	}
	// The triple {(0,0),(1,1),(3,0)} also has support 5 and must be found.
	if m := findSet(res.Frequent, dataset.Itemset{it(0, 0), it(1, 1), it(3, 0)}); m == nil || m.Count != 5 {
		t.Fatalf("triple: %+v", m)
	}
	// No (2,*) item is frequent at 50%.
	for _, m := range res.Frequent {
		for _, item := range m.Set {
			if item.Attr() == 2 {
				t.Fatalf("attr-2 item mined as frequent: %v", m.Set)
			}
		}
	}
}

func TestMineMaxLen(t *testing.T) {
	rows := rows4(
		[4]int{0, 0, 0, 0},
		[4]int{0, 0, 0, 0},
		[4]int{0, 0, 0, 0},
	)
	res, err := Mine(rows, Config{MinSupport: 0.9, MaxLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Frequent {
		if len(m.Set) > 2 {
			t.Fatalf("MaxLen=2 violated: %v", m.Set)
		}
	}
	// With 4 identical attributes: 4 singletons + C(4,2)=6 pairs.
	if len(res.Frequent) != 10 {
		t.Fatalf("got %d frequent sets want 10", len(res.Frequent))
	}
}

func TestMineOneItemPerAttribute(t *testing.T) {
	rows := rows4(
		[4]int{0, 0, 0, 0},
		[4]int{1, 0, 0, 0},
		[4]int{0, 0, 0, 0},
		[4]int{1, 0, 0, 0},
	)
	res, err := Mine(rows, Config{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Frequent {
		seen := map[int]bool{}
		for _, item := range m.Set {
			if seen[item.Attr()] {
				t.Fatalf("itemset %v repeats attribute %d", m.Set, item.Attr())
			}
			seen[item.Attr()] = true
		}
	}
	// (0,0) and (0,1) both have support 0.5 but must never co-occur in a
	// mined itemset; this is implied by the loop above but make the
	// specific pair explicit.
	if findSet(res.Frequent, dataset.Itemset{it(0, 0), it(0, 1)}) != nil {
		t.Fatal("mined itemset with two bins of the same attribute")
	}
}

func TestNegativeBorder(t *testing.T) {
	// (0,0) support 1.0 frequent; (1,0) support 1.0 frequent;
	// pair {(0,0),(1,0)} support 1.0 frequent; (2,k) all infrequent.
	// Make attr 2 alternate so each bin has support 0.5 with min 0.6:
	// those singletons are border members.
	rows := rows4(
		[4]int{0, 0, 0, 0},
		[4]int{0, 0, 1, 0},
		[4]int{0, 0, 0, 1},
		[4]int{0, 0, 1, 1},
	)
	res, err := Mine(rows, Config{MinSupport: 0.6, WithBorder: true})
	if err != nil {
		t.Fatal(err)
	}
	// Border must contain the infrequent singletons (2,0), (2,1), (3,0), (3,1).
	for _, want := range []dataset.Itemset{
		{it(2, 0)}, {it(2, 1)}, {it(3, 0)}, {it(3, 1)},
	} {
		if findSet(res.Border, want) == nil {
			t.Errorf("border missing %v", want)
		}
	}
	// Nothing in the border may be frequent.
	minCount := 3 // ceil(0.6*4)
	for _, m := range res.Border {
		if m.Count >= minCount {
			t.Fatalf("border itemset %v has count %d >= %d", m.Set, m.Count, minCount)
		}
	}
}

func TestBorderPairs(t *testing.T) {
	// (0,0) and (1,0) each support 0.5 (frequent at 0.5), but they never
	// co-occur: the pair has support 0 yet both subsets are frequent -> it
	// is generated as a candidate and lands in the border.
	rows := rows4(
		[4]int{0, 1, 0, 0},
		[4]int{1, 0, 1, 1},
		[4]int{0, 1, 2, 2},
		[4]int{1, 0, 3, 3},
	)
	res, err := Mine(rows, Config{MinSupport: 0.5, WithBorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := findSet(res.Border, dataset.Itemset{it(0, 0), it(1, 0)}); m == nil || m.Count != 0 {
		t.Fatalf("pair border: %+v; border=%v", m, res.Border)
	}
}

func TestSampleSize(t *testing.T) {
	cases := []struct{ batch, want int }{
		{10, 10},
		{500, 500},
		{1000, 1000},
		{50000, 1000},
		{100000, 1000},
		{200000, 2000},
		{1000000, 10000},
	}
	for _, tc := range cases {
		if got := SampleSize(tc.batch); got != tc.want {
			t.Errorf("SampleSize(%d)=%d want %d", tc.batch, got, tc.want)
		}
	}
}

// Brute-force reference: count support of every candidate itemset up to
// length 3 and compare with Mine's output on random small inputs.
func TestMineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nRows := 8 + rng.Intn(24)
		nAttr := 3 + rng.Intn(3)
		rows := make([]dataset.Itemset, nRows)
		for i := range rows {
			row := make(dataset.Itemset, nAttr)
			for a := 0; a < nAttr; a++ {
				row[a] = it(a, rng.Intn(3))
			}
			rows[i] = row
		}
		minSup := 0.2 + rng.Float64()*0.5
		res, err := Mine(rows, Config{MinSupport: minSup, MaxLen: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := map[dataset.ItemsetKey]int{}
		for _, m := range res.Frequent {
			got[m.Set.Key()] = m.Count
		}
		want := bruteForce(rows, nAttr, minSup)
		if len(got) != len(want) {
			t.Fatalf("trial %d: mined %d sets, brute force %d (minSup=%.2f)", trial, len(got), len(want), minSup)
		}
		for k, cnt := range want {
			if got[k] != cnt {
				t.Fatalf("trial %d: set %v count=%d want %d", trial, k.Itemset(), got[k], cnt)
			}
		}
	}
}

// bruteForce enumerates all itemsets of length 1..3 drawn from observed
// items (one per attribute) and returns those meeting the threshold.
func bruteForce(rows []dataset.Itemset, nAttr int, minSup float64) map[dataset.ItemsetKey]int {
	minCount := int(minSup * float64(len(rows)))
	if float64(minCount) < minSup*float64(len(rows)) {
		minCount++
	}
	if minCount < 1 {
		minCount = 1
	}
	// Observed items per attribute.
	perAttr := make([][]dataset.Item, nAttr)
	seen := map[dataset.Item]bool{}
	for _, row := range rows {
		for _, item := range row {
			if !seen[item] {
				seen[item] = true
				perAttr[item.Attr()] = append(perAttr[item.Attr()], item)
			}
		}
	}
	support := func(is dataset.Itemset) int {
		c := 0
		for _, row := range rows {
			if is.ContainsAll(row) {
				c++
			}
		}
		return c
	}
	out := map[dataset.ItemsetKey]int{}
	consider := func(is dataset.Itemset) {
		if c := support(is); c >= minCount {
			out[is.Key()] = c
		}
	}
	for a := 0; a < nAttr; a++ {
		for _, i1 := range perAttr[a] {
			consider(dataset.Itemset{i1})
			for b := a + 1; b < nAttr; b++ {
				for _, i2 := range perAttr[b] {
					consider(dataset.Itemset{i1, i2})
					for c := b + 1; c < nAttr; c++ {
						for _, i3 := range perAttr[c] {
							consider(dataset.Itemset{i1, i2, i3})
						}
					}
				}
			}
		}
	}
	return out
}

// Property: every reported support equals a direct recount, and results
// respect the threshold.
func TestMineSupportsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := make([]dataset.Itemset, 200)
	for i := range rows {
		row := make(dataset.Itemset, 5)
		for a := 0; a < 5; a++ {
			row[a] = it(a, rng.Intn(2)) // dense, lots of co-occurrence
		}
		rows[i] = row
	}
	res, err := Mine(rows, Config{MinSupport: 0.3, WithBorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frequent) == 0 {
		t.Fatal("expected frequent itemsets on dense data")
	}
	recount := func(is dataset.Itemset) int {
		c := 0
		for _, row := range rows {
			if is.ContainsAll(row) {
				c++
			}
		}
		return c
	}
	minCount := 60 // 0.3 * 200
	for _, m := range res.Frequent {
		if got := recount(m.Set); got != m.Count {
			t.Fatalf("frequent %v count=%d recount=%d", m.Set, m.Count, got)
		}
		if m.Count < minCount {
			t.Fatalf("frequent %v below threshold: %d", m.Set, m.Count)
		}
	}
	for _, m := range res.Border {
		if got := recount(m.Set); got != m.Count {
			t.Fatalf("border %v count=%d recount=%d", m.Set, m.Count, got)
		}
		if m.Count >= minCount {
			t.Fatalf("border %v meets threshold: %d", m.Set, m.Count)
		}
	}
}

func TestResultOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := make([]dataset.Itemset, 100)
	for i := range rows {
		row := make(dataset.Itemset, 4)
		for a := 0; a < 4; a++ {
			row[a] = it(a, rng.Intn(2))
		}
		rows[i] = row
	}
	res, err := Mine(rows, Config{MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Frequent); i++ {
		a, b := &res.Frequent[i-1], &res.Frequent[i]
		if len(a.Set) > len(b.Set) {
			t.Fatal("frequent sets not ordered by length")
		}
		if len(a.Set) == len(b.Set) && a.Count < b.Count {
			t.Fatal("frequent sets not ordered by support within a length")
		}
	}
}

func BenchmarkMine1000x20(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	rows := make([]dataset.Itemset, 1000)
	for i := range rows {
		row := make(dataset.Itemset, 20)
		for a := 0; a < 20; a++ {
			row[a] = it(a, rng.Intn(4))
		}
		rows[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(rows, Config{MinSupport: 0.2, MaxLen: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMaxPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rows := make([]dataset.Itemset, 100)
	for i := range rows {
		row := make(dataset.Itemset, 8)
		for a := 0; a < 8; a++ {
			row[a] = it(a, rng.Intn(2))
		}
		rows[i] = row
	}
	full, err := Mine(rows, Config{MinSupport: 0.2, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := Mine(rows, Config{MinSupport: 0.2, MaxLen: 3, MaxPerLevel: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Frequent) > 15 { // <= 5 per level x 3 levels
		t.Fatalf("trimmed run returned %d itemsets", len(trimmed.Frequent))
	}
	if len(trimmed.Frequent) >= len(full.Frequent) {
		t.Fatalf("trimming had no effect: %d vs %d", len(trimmed.Frequent), len(full.Frequent))
	}
	// Per level, the trimmed result must be the top-5 supports of the full
	// result at that level.
	perLevel := map[int][]int{}
	for _, m := range full.Frequent {
		perLevel[len(m.Set)] = append(perLevel[len(m.Set)], m.Count)
	}
	for _, counts := range perLevel {
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	}
	trimCount := map[int]int{}
	for _, m := range trimmed.Frequent {
		trimCount[len(m.Set)]++
		// The itemset's support must be at least the 5th-highest full
		// support at this level (trimming keeps the top of level 1; deeper
		// levels depend on what survived above, so only level 1 is exact).
		if len(m.Set) == 1 {
			counts := perLevel[1]
			floor := counts[min(4, len(counts)-1)]
			if m.Count < floor {
				t.Fatalf("level-1 itemset %v count %d below top-5 floor %d", m.Set, m.Count, floor)
			}
		}
	}
	for l, n := range trimCount {
		if n > 5 {
			t.Fatalf("level %d kept %d > 5 itemsets", l, n)
		}
	}
}

func TestMaxPerLevelRejectsNegative(t *testing.T) {
	for name, cfg := range map[string]Config{
		"MaxPerLevel": {MinSupport: 0.5, MaxPerLevel: -1},
		"Keep":        {MinSupport: 0.5, Keep: -1},
		"KeepBorder":  {MinSupport: 0.5, WithBorder: true, KeepBorder: -1},
	} {
		if _, err := Mine(nil, cfg); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}
