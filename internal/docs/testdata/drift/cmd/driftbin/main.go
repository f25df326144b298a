// Command driftbin is the deliberately drifted doc fixture: its
// -undocumented flag is missing from the sibling OPERATIONS.md, -prose
// is mentioned only in prose (not backticked), and -hidden is bound
// with the StringVar form on a FlagSet, so the gate must flag all
// three — while -rows, bound the same way but documented, stays quiet.
package main

import "flag"

func main() {
	seed := flag.Int64("seed", 1, "rng seed")
	bad := flag.Bool("undocumented", false, "this flag never made it into the guide")
	prose := flag.String("prose", "", "mentioned without backticks only")
	var (
		hidden string
		rows   int
	)
	fs := flag.CommandLine
	fs.StringVar(&hidden, "hidden", "", "registered through a Var form, and not in the guide either")
	fs.IntVar(&rows, "rows", 100, "registered through a Var form, documented")
	flag.Parse()
	_, _, _, _, _ = seed, bad, prose, hidden, rows
}
