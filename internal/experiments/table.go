package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Table is one experiment's result, exactly as a reader sees it: the
// claim tests read the same cells the command prints.
type Table struct {
	cols []col
	rows [][]cell
}

// col is a column heading. A wall-clock column's cells differ from run to
// run; every other column is behaviour, pinned by testdata/tables.golden.
type col struct {
	name string
	wall bool
}

// cell is one printed value and the exact values behind it: counts,
// ratios, a duration's nanoseconds (a float64 holds those exactly). A
// cell that prints two figures, such as "2 / 5", holds both in order.
type cell struct {
	text string
	vals []float64
}

func newTable(cols ...string) *Table {
	t := &Table{}
	for _, name := range cols {
		t.cols = append(t.cols, col{name: name})
	}
	return t
}

// wallClock marks the named columns as wall-clock readings.
func (t *Table) wallClock(names ...string) *Table {
	for _, name := range names {
		t.cols[t.colIndex(name)].wall = true
	}
	return t
}

func (t *Table) add(cells ...cell) { t.rows = append(t.rows, cells) }

func (t *Table) colIndex(name string) int {
	for i, c := range t.cols {
		if c.name == name {
			return i
		}
	}
	panic(fmt.Sprintf("experiments: no column %q", name))
}

// at returns the cell in the row whose first cell prints as row, under
// the column named col.
func (t *Table) at(row, col string) cell {
	for _, r := range t.rows {
		if r[0].text == row {
			return r[t.colIndex(col)]
		}
	}
	panic(fmt.Sprintf("experiments: no row %q", row))
}

// Print writes the table under its title with its columns aligned.
func (t *Table) Print(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	line := make([]string, len(t.cols))
	for i, c := range t.cols {
		line[i] = c.name
	}
	fmt.Fprintln(tw, strings.Join(line, "\t"))
	for _, r := range t.rows {
		for i, c := range r {
			line[i] = c.text
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	_ = tw.Flush()
}

func text(s string) cell { return cell{text: s} }

// num prints vs through format and keeps them as the exact values.
func num[T int | int64 | float64](format string, vs ...T) cell {
	c := cell{vals: make([]float64, len(vs))}
	args := make([]any, len(vs))
	for i, v := range vs {
		c.vals[i], args[i] = float64(v), v
	}
	c.text = fmt.Sprintf(format, args...)
	return c
}

// dur prints durations rounded to unit, joined by " / ".
func dur(unit time.Duration, ds ...time.Duration) cell {
	c := cell{vals: make([]float64, len(ds))}
	texts := make([]string, len(ds))
	for i, d := range ds {
		c.vals[i], texts[i] = float64(d), d.Round(unit).String()
	}
	c.text = strings.Join(texts, " / ")
	return c
}
