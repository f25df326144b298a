package analysis

import (
	"go/ast"
	"strings"
)

// WallTime keeps wall-clock reads confined to the observability and
// benchmark layers. Everywhere else a time.Now call either feeds
// timing into results (breaking determinism) or is stage accounting
// that belongs to the obs/report layer; legitimate sites outside those
// packages carry a //shahinvet:allow walltime annotation, which keeps
// the full inventory of clock reads greppable.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "confine time.Now to internal/obs, internal/bench, and annotated sites",
	Run:  runWallTime,
}

// wallTimeExempt reports whether a package may read the clock freely.
func wallTimeExempt(path string) bool {
	for _, suffix := range []string{"internal/obs", "internal/bench"} {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func runWallTime(pass *Pass) {
	if wallTimeExempt(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := calleeFromPackage(info, call, "time"); ok && fn.Name() == "Now" {
				pass.InScope()
				pass.Reportf(call.Pos(),
					"time.Now outside the obs/bench layer; route timing through obs or annotate the site with //shahinvet:allow walltime")
			}
			return true
		})
	}
}
