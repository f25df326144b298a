// Command shahin-datagen emits one of the built-in synthetic datasets
// (shaped after the paper's five benchmarks) as CSV.
//
// Usage:
//
//	shahin-datagen -dataset census -rows 10000 -seed 1 -o census.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"shahin"
	"shahin/internal/cli"
)

func main() {
	var (
		name = flag.String("dataset", "census", "dataset family: "+strings.Join(shahin.DatasetNames(), ", "))
		rows = flag.Int("rows", 10000, "number of tuples (0 = paper scale; beware: up to 4M)")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	d, err := shahin.GenerateDataset(*name, *rows, *seed)
	if err != nil {
		cli.Fatal(err)
	}
	write := func(w io.Writer) error { return shahin.WriteCSV(w, d) }
	if *out == "" {
		err = write(os.Stdout)
	} else {
		err = cli.WriteFile(*out, write)
	}
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d rows of %s (%d attributes)\n", d.NumRows(), *name, d.NumAttrs())
}
