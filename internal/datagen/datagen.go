// Package datagen generates synthetic datasets that mirror the shape of
// the five benchmarks in the paper's Table 1 (Census-Income KDD,
// Recidivism, LendingClub, KDD Cup 1999, Covertype): the same number of
// categorical and numerical attributes and the same maximum categorical
// domain cardinality, with Zipf-skewed categorical marginals so that
// frequent itemsets exist — the property Shahin's speedup depends on.
//
// Labels come from a planted, seed-deterministic decision rule over a few
// attributes plus flip noise, so the random-forest substrate has real
// signal to learn and the explainers have real structure to surface.
package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"shahin/internal/dataset"
	"shahin/internal/sample"
)

// CatSpec describes one categorical attribute.
type CatSpec struct {
	Card int     // domain cardinality (>= 2)
	Skew float64 // Zipf exponent of the marginal; 0 = uniform
}

// NumSpec describes one numeric attribute (values ~ Normal(Mean, Std)).
type NumSpec struct {
	Mean, Std float64
}

// Config fully describes a synthetic dataset family. Generate is
// deterministic given (Config, rows, seed).
type Config struct {
	Name      string
	Rows      int // the paper-scale row count; Generate may use fewer
	Cat       []CatSpec
	Num       []NumSpec
	FlipNoise float64 // probability a label is flipped after the rule
	// Correlation couples adjacent categorical attributes: with this
	// probability attribute i copies attribute i-1's drawn *rank* (both
	// truncated to the smaller domain) instead of sampling independently.
	// Real tabular data has exactly this structure — correlated columns
	// are what make multi-attribute frequent itemsets common — so raising
	// it strengthens pair/triple reuse. 0 (the default) keeps attributes
	// independent.
	Correlation float64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("datagen: config has no name")
	}
	if len(c.Cat)+len(c.Num) == 0 {
		return fmt.Errorf("datagen: config %q has no attributes", c.Name)
	}
	for i, cs := range c.Cat {
		if cs.Card < 2 {
			return fmt.Errorf("datagen: %q cat attr %d cardinality %d < 2", c.Name, i, cs.Card)
		}
		if cs.Skew < 0 {
			return fmt.Errorf("datagen: %q cat attr %d negative skew", c.Name, i)
		}
	}
	for i, ns := range c.Num {
		if ns.Std <= 0 {
			return fmt.Errorf("datagen: %q num attr %d std %g <= 0", c.Name, i, ns.Std)
		}
	}
	if c.FlipNoise < 0 || c.FlipNoise >= 0.5 {
		return fmt.Errorf("datagen: %q flip noise %g outside [0, 0.5)", c.Name, c.FlipNoise)
	}
	if c.Correlation < 0 || c.Correlation > 1 {
		return fmt.Errorf("datagen: %q correlation %g outside [0, 1]", c.Name, c.Correlation)
	}
	return nil
}

// Schema materialises the dataset.Schema for the config: categorical
// attributes first (c0..), then numeric (n0..), binary classes.
func (c *Config) Schema() *dataset.Schema {
	s := &dataset.Schema{Classes: []string{"neg", "pos"}}
	for i, cs := range c.Cat {
		vals := make([]string, cs.Card)
		for v := range vals {
			vals[v] = fmt.Sprintf("c%d_v%d", i, v)
		}
		s.Attrs = append(s.Attrs, dataset.Attr{
			Name:   fmt.Sprintf("cat%02d", i),
			Kind:   dataset.Categorical,
			Values: vals,
		})
	}
	for i := range c.Num {
		s.Attrs = append(s.Attrs, dataset.Attr{
			Name: fmt.Sprintf("num%02d", i),
			Kind: dataset.Numeric,
		})
	}
	return s
}

// Generate produces rows tuples with labels. rows <= 0 uses the config's
// paper-scale Rows. The labelling rule depends only on the seed, so two
// generations with the same seed agree on the concept being learned.
func (c *Config) Generate(rows int, seed int64) (*dataset.Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 {
		rows = c.Rows
	}
	rng := rand.New(rand.NewSource(seed))
	schema := c.Schema()
	d := dataset.New(schema, rows)

	samplers := make([]*sample.Zipf, len(c.Cat))
	for i, cs := range c.Cat {
		z, err := sample.NewZipf(cs.Card, cs.Skew)
		if err != nil {
			return nil, err
		}
		samplers[i] = z
	}

	rule := plantRule(c, rng)
	row := make([]float64, schema.NumAttrs())
	for r := 0; r < rows; r++ {
		for i := range c.Cat {
			if i > 0 && c.Correlation > 0 && rng.Float64() < c.Correlation {
				// Copy the previous attribute's rank, folded into this
				// attribute's domain. Because Zipf ranks are
				// frequency-ordered, copying ranks couples the *frequent*
				// values of adjacent columns.
				row[i] = float64(int(row[i-1]) % c.Cat[i].Card)
				continue
			}
			row[i] = float64(samplers[i].Draw(rng))
		}
		for i, ns := range c.Num {
			row[len(c.Cat)+i] = ns.Mean + ns.Std*rng.NormFloat64()
		}
		label := rule.label(row)
		if rng.Float64() < c.FlipNoise {
			label = 1 - label
		}
		d.AppendRow(row, label)
	}
	return d, nil
}

// rule is a planted labelling concept: a weighted vote over a handful of
// attribute tests, thresholded at zero.
type rule struct {
	catTests []catTest
	numTests []numTest
}

type catTest struct {
	attr   int
	below  int // test passes when value < below (the frequent head values)
	weight float64
}

type numTest struct {
	attr      int // index into the full row
	threshold float64
	weight    float64
}

// plantRule derives a deterministic concept from the generator's RNG
// stream. It tests the head (most frequent) values of up to three
// categorical attributes and the sign region of up to two numeric ones,
// which makes the concept both learnable and aligned with frequent
// itemsets — mirroring real tabular data where predictive values are
// often also common values.
func plantRule(c *Config, rng *rand.Rand) rule {
	var ru rule
	nCat := len(c.Cat)
	catPick := min(3, nCat)
	for _, a := range pickDistinct(rng, nCat, catPick) {
		head := c.Cat[a].Card / 3
		if head < 1 {
			head = 1
		}
		ru.catTests = append(ru.catTests, catTest{
			attr:   a,
			below:  head,
			weight: 1 + rng.Float64(),
		})
	}
	numPick := min(2, len(c.Num))
	for _, a := range pickDistinct(rng, len(c.Num), numPick) {
		ru.numTests = append(ru.numTests, numTest{
			attr:      nCat + a,
			threshold: c.Num[a].Mean,
			weight:    1 + rng.Float64(),
		})
	}
	return ru
}

func (ru rule) label(row []float64) int {
	score := 0.0
	total := 0.0
	for _, t := range ru.catTests {
		total += t.weight
		if int(row[t.attr]) < t.below {
			score += t.weight
		} else {
			score -= t.weight
		}
	}
	for _, t := range ru.numTests {
		total += t.weight
		if row[t.attr] > t.threshold {
			score += t.weight
		} else {
			score -= t.weight
		}
	}
	if total == 0 {
		return 0
	}
	if score > 0 {
		return 1
	}
	return 0
}

// pickDistinct returns k distinct values in [0, n), deterministically from
// rng, in ascending order.
func pickDistinct(rng *rand.Rand, n, k int) []int {
	out := sample.UniformIndices(rng, n, k)
	sort.Ints(out)
	return out
}
