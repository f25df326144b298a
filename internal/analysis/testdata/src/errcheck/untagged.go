//go:build shahinvet_never

package errcheck

import "os"

// untaggedBuild is behind a build tag no build sets, so nothing here
// is analysed.
func untaggedBuild() {
	os.Remove("x")
}
