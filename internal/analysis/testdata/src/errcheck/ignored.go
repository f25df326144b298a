//go:build ignore

package errcheck

import "os"

// ignoredBuild is in a file no build compiles, so nothing here is
// analysed.
func ignoredBuild() {
	os.Remove("x")
}
