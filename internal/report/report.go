// Package report renders benchmark results as aligned ASCII tables, CSV
// series and simple text plots — the output layer of the cmd binaries that
// regenerate the paper's tables and figures.

//lint:file-ignore errcheck rendering to caller-supplied writers is best-effort; callers pass terminals or in-memory buffers
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row (cells are stringified with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly (3 significant-ish digits).
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		cells[i] = esc(h)
	}
	fmt.Fprintln(w, strings.Join(cells, ","))
	for _, row := range t.Rows {
		out := make([]string, len(row))
		for i, c := range row {
			out[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(out, ","))
	}
}

// Series is one named line of a Plot.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Plot renders series as a crude ASCII chart: rows of y-buckets, columns of
// x-positions, one marker rune per series. It is deliberately simple — the
// figures' quantitative content comes from the accompanying tables.
type Plot struct {
	Title  string
	XLabel string
	YLabel string
	Width  int
	Height int
	Series []Series
	LogY   bool
}

var markers = []rune{'*', 'o', '+', 'x', '#', '@'}

// Write renders the plot to w.
func (p *Plot) Write(w io.Writer) {
	width, height := p.Width, p.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 16
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	tr := func(y float64) float64 {
		if p.LogY && y > 0 {
			return math.Log10(y)
		}
		return y
	}
	for _, s := range p.Series {
		for i := range s.X {
			y := tr(s.Y[i])
			if first {
				xmin, xmax, ymin, ymax = s.X[i], s.X[i], y, y
				first = false
				continue
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, y)
			ymax = math.Max(ymax, y)
		}
	}
	if first {
		fmt.Fprintln(w, "(empty plot)")
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]rune, height)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", width))
	}
	for si, s := range p.Series {
		mark := markers[si%len(markers)]
		for i := range s.X {
			cx := int((s.X[i] - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((tr(s.Y[i]) - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			if row >= 0 && row < height && cx >= 0 && cx < width {
				grid[row][cx] = mark
			}
		}
	}
	if p.Title != "" {
		fmt.Fprintln(w, p.Title)
	}
	scale := "linear"
	if p.LogY {
		scale = "log10"
	}
	fmt.Fprintf(w, "y: %s [%s .. %s] (%s)\n", p.YLabel,
		FormatFloat(ymin), FormatFloat(ymax), scale)
	for _, row := range grid {
		fmt.Fprintf(w, "| %s\n", string(row))
	}
	fmt.Fprintf(w, "+-%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "x: %s [%s .. %s]   legend:", p.XLabel,
		FormatFloat(xmin), FormatFloat(xmax))
	for si, s := range p.Series {
		fmt.Fprintf(w, " %c=%s", markers[si%len(markers)], s.Name)
	}
	fmt.Fprintln(w)
}

// String renders the plot to a string.
func (p *Plot) String() string {
	var b strings.Builder
	p.Write(&b)
	return b.String()
}
