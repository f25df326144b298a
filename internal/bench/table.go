package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a printable experiment result: a title, a header row, and data
// rows, rendered with aligned columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	total := len(t.Header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// tableJSON is the MarshalJSON shape of a Table: the header names the
// columns and each row carries typed cells, so readers of a -json record can
// compute over figures without re-parsing rendered text.
type tableJSON struct {
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Rows   [][]any  `json:"rows"`
	Notes  []string `json:"notes,omitempty"`
}

// MarshalJSON implements json.Marshaler: cells that parse as integers
// or floats are emitted as JSON numbers, everything else as strings.
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := make([][]any, len(t.Rows))
	for i, row := range t.Rows {
		cells := make([]any, len(row))
		for j, c := range row {
			cells[j] = typedCell(c)
		}
		rows[i] = cells
	}
	return json.Marshal(tableJSON{Title: t.Title, Header: t.Header, Rows: rows, Notes: t.Notes})
}

// typedCell converts a rendered cell back to its natural JSON type.
func typedCell(c string) any {
	if c == "" {
		return c
	}
	if v, err := strconv.ParseInt(c, 10, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseFloat(c, 64); err == nil {
		return v
	}
	return c
}

// f2 formats a float with 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f3 formats a float with 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
