package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Samples
// outside the range are counted in the under/overflow tallies so no
// data is silently dropped. It renders paper-style distribution plots
// (Figure 7) as text.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int64
	Underflow int64
	Overflow  int64
	total     int64
}

// NewHistogram creates a histogram with bins equal-width bins on
// [lo, hi). It panics if bins < 1 or hi ≤ lo, which are programming
// errors, not data conditions.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram range must be non-empty")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo {
		h.Underflow++
		return
	}
	if x >= h.Hi {
		h.Overflow++
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i >= len(h.Counts) { // guard against float rounding at Hi
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of observations recorded, including
// under/overflow.
func (h *Histogram) Total() int64 { return h.total }

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 {
	return (h.Hi - h.Lo) / float64(len(h.Counts))
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Fraction returns the fraction of all observations falling in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Render draws the histogram as a fixed-width text chart, one bin per
// row, with an optional fitted distribution overlaid as '*' markers.
// width is the number of character cells for the longest bar.
func (h *Histogram) Render(width int, fit Distribution) string {
	if width < 8 {
		width = 8
	}
	var maxFrac float64
	for i := range h.Counts {
		if f := h.Fraction(i); f > maxFrac {
			maxFrac = f
		}
	}
	if fit != nil {
		for i := range h.Counts {
			if f := fit.PDF(h.BinCenter(i)) * h.BinWidth(); f > maxFrac {
				maxFrac = f
			}
		}
	}
	if maxFrac == 0 {
		maxFrac = 1
	}
	var sb strings.Builder
	for i := range h.Counts {
		frac := h.Fraction(i)
		bar := int(math.Round(frac / maxFrac * float64(width)))
		line := []byte(strings.Repeat("#", bar) + strings.Repeat(" ", width-bar+2))
		if fit != nil {
			pos := int(math.Round(fit.PDF(h.BinCenter(i)) * h.BinWidth() / maxFrac * float64(width)))
			if pos >= 0 && pos < len(line) {
				line[pos] = '*'
			}
		}
		fmt.Fprintf(&sb, "%7.3f |%s %6.2f%%\n", h.BinCenter(i), string(line), frac*100)
	}
	return sb.String()
}
