package analysis

import (
	"go/ast"
)

// DetRand bans the two randomness patterns that break run-for-run
// reproducibility: calls to math/rand's package-level functions (which
// draw from the shared global source) and sources seeded from the wall
// clock. The pipeline's design threads one explicitly seeded
// *rand.Rand from Options.Seed (see internal/sample), so identical
// seeds must yield identical explanations.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid the global math/rand source and clock-seeded RNGs",
	Run:  runDetRand,
}

// detrandConstructors create explicit sources or derived generators;
// they are fine as long as the seed is not the clock.
var detrandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDetRand(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := calleeFromPackage(info, call, "math/rand")
			if !ok {
				fn, ok = calleeFromPackage(info, call, "math/rand/v2")
				if !ok {
					return true
				}
			}
			pass.InScope()
			if detrandConstructors[fn.Name()] {
				for _, arg := range call.Args {
					if containsCallTo(info, arg, "time", "Now") {
						pass.Reportf(call.Pos(),
							"rand.%s seeded from the wall clock; derive the seed from Options.Seed so runs are reproducible", fn.Name())
						break
					}
				}
				return true
			}
			pass.Reportf(call.Pos(),
				"rand.%s uses the global RNG; thread an explicitly seeded *rand.Rand instead", fn.Name())
			return true
		})
	}
}
