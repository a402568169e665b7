// Package report formats experiment results as Markdown and CSV tables,
// mirroring the tables and figure series of the paper's evaluation.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns", len(cells), t.Title, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteMarkdown renders the table as GitHub-flavored Markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Columns, " | ")); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV (no quoting: cells must not contain
// commas or newlines, which experiment outputs here never do).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			if strings.ContainsAny(cell, ",\n") {
				return fmt.Errorf("report: cell %q needs quoting, refusing", cell)
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Fixed formats a float with the given number of decimals.
func Fixed(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Sci formats a float in scientific notation with 3 significant digits.
func Sci(v float64) string {
	return fmt.Sprintf("%.3g", v)
}

// Pct formats a ratio as a percentage with the given decimals.
func Pct(v float64, decimals int) string {
	return fmt.Sprintf("%.*f%%", decimals, v*100)
}

// Times formats an improvement factor like the paper's "2.22×".
func Times(v float64) string {
	return fmt.Sprintf("%.2f×", v)
}
