package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"kronlab/internal/analytics"
)

// scatterPoint is one marked point of an ASCII scatter plot.
type scatterPoint struct {
	X, Y float64
	Mark byte
}

// asciiScatter renders a log-log scatter plot as preformatted text —
// the medium through which Fig. 2's density scatter is reproduced.
func asciiScatter(w io.Writer, title, xlabel, ylabel string, pts []scatterPoint, width, height int) {
	if len(pts) == 0 {
		fmt.Fprintln(w, "(no points)")
		return
	}
	lx := func(v float64) float64 { return math.Log10(v) }
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if p.X <= 0 || p.Y <= 0 {
			continue
		}
		minX, maxX = math.Min(minX, lx(p.X)), math.Max(maxX, lx(p.X))
		minY, maxY = math.Min(minY, lx(p.Y)), math.Max(maxY, lx(p.Y))
	}
	if math.IsInf(minX, 1) {
		fmt.Fprintln(w, "(no positive points)")
		return
	}
	// Pad degenerate ranges.
	if maxX-minX < 1e-9 {
		minX, maxX = minX-0.5, maxX+0.5
	}
	if maxY-minY < 1e-9 {
		minY, maxY = minY-0.5, maxY+0.5
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, p := range pts {
		if p.X <= 0 || p.Y <= 0 {
			continue
		}
		cx := int((lx(p.X) - minX) / (maxX - minX) * float64(width-1))
		cy := int((lx(p.Y) - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - cy
		grid[row][cx] = p.Mark
	}
	fmt.Fprintf(w, "```\n%s  (log10 %s vs log10 %s)\n", title, xlabel, ylabel)
	fmt.Fprintf(w, "%8.2f ┐\n", maxY)
	for _, row := range grid {
		fmt.Fprintf(w, "         │%s\n", string(row))
	}
	fmt.Fprintf(w, "%8.2f ┴%s\n", minY, strings.Repeat("─", width))
	fmt.Fprintf(w, "          %-8.2f%s%8.2f\n```\n", minX, strings.Repeat(" ", width-16), maxX)
}

// histogramLines renders a value→count map as analytics.Histogram's
// sorted "value | bar count" lines under a title inside a code fence — the
// Fig. 1 medium.
func histogramLines(w io.Writer, title string, hist map[int64]int64, barWidth int) {
	fmt.Fprintf(w, "```\n%s\n%s```\n", title, analytics.HistogramOf(hist).Render(barWidth))
}

// fmtInt renders ints with thousands separators for readable tables.
func fmtInt(v int64) string {
	s := fmt.Sprint(v)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// fmtFloat renders a float compactly in scientific or fixed notation.
func fmtFloat(v float64) string {
	if v == 0 {
		return "0"
	}
	a := math.Abs(v)
	if a >= 0.01 && a < 10000 {
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%.3e", v)
}
