// Package explain holds the types shared by the four explainer
// implementations (LIME, Anchor, KernelSHAP and exact TreeSHAP): the
// attribution and rule result formats, and the perturbation-pool
// interface through which Shahin injects materialised perturbations for
// reuse.
package explain

import (
	"fmt"
	"sort"
	"strings"

	"shahin/internal/dataset"
	"shahin/internal/perturb"
)

// Attribution is a feature-importance explanation: one weight per
// attribute, where larger positive weights push the prediction toward the
// explained class. LIME and KernelSHAP produce attributions.
type Attribution struct {
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
	Class     int       `json:"class"` // the class being explained (the tuple's prediction)
}

// Ranking returns attribute indices ordered by decreasing |weight|.
func (a *Attribution) Ranking() []int {
	idx := make([]int, len(a.Weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return abs(a.Weights[idx[x]]) > abs(a.Weights[idx[y]])
	})
	return idx
}

// TopK returns the k most important attribute indices.
func (a *Attribution) TopK(k int) []int {
	r := a.Ranking()
	if k > len(r) {
		k = len(r)
	}
	return r[:k]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Describe renders the attribution for humans: the predicted class and
// the k most influential attributes with the tuple's actual values and
// signed weights, e.g.
//
//	class=pos because color=red (+0.320), size=12.5 (-0.210)
func (a *Attribution) Describe(schema *dataset.Schema, tuple []float64, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class=%s because ", schema.Classes[a.Class])
	for i, attr := range a.TopK(k) {
		if i > 0 {
			b.WriteString(", ")
		}
		at := &schema.Attrs[attr]
		if at.Kind == dataset.Categorical && attr < len(tuple) {
			fmt.Fprintf(&b, "%s=%s", at.Name, at.Values[int(tuple[attr])])
		} else if attr < len(tuple) {
			fmt.Fprintf(&b, "%s=%.4g", at.Name, tuple[attr])
		} else {
			b.WriteString(at.Name)
		}
		fmt.Fprintf(&b, " (%+.3f)", a.Weights[attr])
	}
	return b.String()
}

// Rule is an Anchor explanation: IF all predicates hold THEN the
// classifier predicts Class, with the measured precision and coverage.
// Unverified marks a rule whose precision bound never cleared the
// threshold: it was accepted on its mean alone, or no rule cleared it.
type Rule struct {
	Items      dataset.Itemset `json:"items"` // the predicates, as (attribute, bin) items
	Class      int             `json:"class"`
	Precision  float64         `json:"precision"`
	Coverage   float64         `json:"coverage"`
	Unverified bool            `json:"unverified,omitempty"`
}

// Describe renders the rule for humans using the schema's attribute names.
func (r *Rule) Describe(schema *dataset.Schema) string {
	if len(r.Items) == 0 {
		return fmt.Sprintf("IF (anything) THEN class=%s", schema.Classes[r.Class])
	}
	s := "IF "
	for i, it := range r.Items {
		if i > 0 {
			s += " AND "
		}
		attr := &schema.Attrs[it.Attr()]
		if attr.Kind == dataset.Categorical {
			s += fmt.Sprintf("%s=%s", attr.Name, attr.Values[it.Bin()])
		} else {
			s += fmt.Sprintf("%s∈bin%d", attr.Name, it.Bin())
		}
	}
	return fmt.Sprintf("%s THEN class=%s (precision %.2f, coverage %.2f)",
		s, schema.Classes[r.Class], r.Precision, r.Coverage)
}

// Pool supplies pre-labelled perturbations for reuse. A nil Pool means
// sequential operation (no reuse). Implementations consume samples from a
// per-tuple allowance so the same pooled sample is not handed out twice
// for one explanation. The slice either method returns is a window the
// pool may own and overwrite: it is valid until the pool's next call, so a
// caller ranges over it at once and keeps only samples it copies out.
type Pool interface {
	// ForTuple returns up to max labelled samples reusable for a tuple
	// with the given full-row item encoding: samples whose frozen itemset
	// the tuple contains.
	ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled
	// ForItemset returns up to max labelled samples whose rows contain
	// all the required items (used by KernelSHAP's subset reuse and
	// Anchor's precision bootstrap). required is the caller's scratch,
	// overwritten for its next call: the pool must not retain it.
	ForItemset(required dataset.Itemset, max int) []perturb.Pooled
}

// Observer is an optional extension of Pool: explainers push every fresh
// labelled perturbation to an observing pool, which is how bench's
// greedyStore, the GREEDY baseline (paper §4.1), fills. The sample's bins
// are the explainer's scratch, valid only during the call: keep a copy.
type Observer interface {
	Observe(s perturb.Pooled)
}
