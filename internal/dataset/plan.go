package dataset

import (
	"fmt"
	"math"

	"shahin/internal/sample"
)

// FillPlan is the training distribution compiled for perturb's fill
// loop: everything one draw of one attribute reads, flat and in the
// order it is read. Compute derives it once from the same alias tables
// sample.NewAlias builds over Freq, so a loop that walks it draws what
// sample.(*Alias).Draw followed by a uniform value inside the bin drew.
type FillPlan struct {
	Attrs []FillAttr // one per attribute
	Bins  []FillBin  // every attribute's bins, attribute after attribute
}

// FillAttr is one attribute's header. Mask and Max restate what
// math/rand's Int31n(K) does with a 31-bit draw v: v&Mask when K is a
// power of two, otherwise reject v > Max and take v%K.
type FillAttr struct {
	Off     int32 // index in Bins of the attribute's bin 0
	K       int32 // number of bins
	Mask    int32 // K-1 when K is a power of two, else -1
	Max     int32 // the largest 31-bit draw Int31n(K) accepts
	Numeric bool
}

// FillBin is one bin: its alias-method column and, for a numeric
// attribute, the interval a value in it is drawn from and the edges a
// value must lie between to itemise back to it.
type FillBin struct {
	Keep  float64 // probability the drawn column keeps its own bin
	Alias int32   // the bin taken otherwise

	// A value in the bin is Lo + f·Width for a uniform f in [0, 1); an
	// empty interval has Width 0 and draws nothing. The outermost bins
	// are clamped to the observed minimum and maximum — tabular LIME's
	// "undiscretise" step.
	Lo, Width float64
	// Stats.Bin(v) is this bin exactly when v > Below && v <= Above
	// (±Inf at the ends). Lo itself is the bin below's, and rounding
	// may land on either edge, so the loop tests and does not assume.
	Below, Above float64
}

// FillPlan returns the compiled training distribution. It is shared and
// read-only.
func (s *Stats) FillPlan() *FillPlan { return s.plan }

// compile builds the fill plan from Freq, Edges, Lo and Hi.
func (s *Stats) compile() error {
	if s.NumAttrs() > 1<<16 {
		return fmt.Errorf("dataset: %d attributes, an Item holds 16 bits of attribute", s.NumAttrs())
	}
	plan := &FillPlan{Attrs: make([]FillAttr, s.NumAttrs())}
	for a, freq := range s.Freq {
		name := s.Schema.Attrs[a].Name
		k := len(freq)
		if k > 1<<16 {
			return fmt.Errorf("dataset: attribute %q has %d bins, an Item holds 16 bits of bin", name, k)
		}
		al, err := sample.NewAlias(freq)
		if err != nil {
			return fmt.Errorf("dataset: attribute %q: %v", name, err)
		}
		at := FillAttr{
			Off:     int32(len(plan.Bins)),
			K:       int32(k),
			Mask:    -1,
			Max:     int32(1<<31 - 1 - (1<<31)%uint32(k)),
			Numeric: s.Schema.Attrs[a].Kind == Numeric,
		}
		if k&(k-1) == 0 {
			at.Mask = int32(k - 1)
		}
		plan.Attrs[a] = at
		edges := s.Edges[a]
		for b := 0; b < k; b++ {
			keep, alias := al.Column(b)
			bin := FillBin{Keep: keep, Alias: int32(alias)}
			if at.Numeric {
				lo, hi := s.Lo[a], s.Hi[a]
				bin.Below, bin.Above = math.Inf(-1), math.Inf(1)
				if b > 0 {
					lo, bin.Below = edges[b-1], edges[b-1]
				}
				if b < len(edges) {
					hi, bin.Above = edges[b], edges[b]
				}
				bin.Lo = lo
				if hi > lo {
					bin.Width = hi - lo
				}
			}
			plan.Bins = append(plan.Bins, bin)
		}
	}
	s.plan = plan
	return nil
}
