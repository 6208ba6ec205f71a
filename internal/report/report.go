// Package report renders experiment series as plain-text charts for the
// bench tool and the examples — bandwidth-over-progress plots (Fig. 7
// style), thread-sweep curves (Fig. 9) and bar groups (Fig. 8/12/13) that
// read in a terminal or a CI log.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Line renders an (x, y) series as a height-row ASCII plot. X values are
// assumed ascending; the plot is column-per-point.
func Line(w io.Writer, title string, xs, ys []float64, height int, yUnit string) {
	if len(xs) == 0 || len(xs) != len(ys) {
		fmt.Fprintf(w, "%s: (no data)\n", title)
		return
	}
	if height < 3 {
		height = 3
	}
	maxY := 0.0
	for _, v := range ys {
		if v > maxY {
			maxY = v
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	fmt.Fprintln(w, title)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(ys)))
	}
	for c, v := range ys {
		h := int(v / maxY * float64(height-1))
		for r := 0; r <= h; r++ {
			grid[height-1-r][c] = '#'
		}
	}
	for r, row := range grid {
		yLabel := ""
		if r == 0 {
			yLabel = fmt.Sprintf("%.0f %s", maxY, yUnit)
		}
		if r == height-1 {
			yLabel = fmt.Sprintf("%.0f %s", 0.0, yUnit)
		}
		fmt.Fprintf(w, "  %10s |%s\n", yLabel, row)
	}
	fmt.Fprintf(w, "  %10s +%s\n", "", strings.Repeat("-", len(ys)))
	fmt.Fprintf(w, "  %10s  x: %.2f .. %.2f\n", "", xs[0], xs[len(xs)-1])
}

// Sparkline compresses a series into one line of block characters.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range ys {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	var sb strings.Builder
	for _, v := range ys {
		i := int(v / max * float64(len(blocks)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(blocks) {
			i = len(blocks) - 1
		}
		sb.WriteRune(blocks[i])
	}
	return sb.String()
}
