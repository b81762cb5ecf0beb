package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compress"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig2 reproduces Figure 2: the distribution of E2MC-compressed blocks at
// MAG — what percentage of each benchmark's blocks land how many bytes above
// a multiple of the granularity. The 0 B bin holds exact multiples (and
// blocks under one MAG); the MAG-byte bin holds uncompressed blocks.
type Fig2 struct {
	MAG        compress.MAG
	Benchmarks []string
	// Pct[i][x] is benchmark i's percentage of blocks at x bytes above a
	// multiple of MAG.
	Pct  [][]float64
	Heat *stats.Heatmap
}

// Figure2 reads the E2MC cells of the compression-only sweep.
func Figure2(t *Trajectory) (Fig2, error) {
	cells := t.reader()
	mag := compress.MAG32
	f := Fig2{MAG: mag, Heat: stats.NewHeatmap(int(mag), 20)}
	for _, w := range workloads.Registry() {
		st := cells.compression(w, E2MCConfig(mag))
		pct := make([]float64, int(mag)+1)
		for x, cnt := range st.AboveMAG {
			if st.Blocks > 0 {
				pct[x] = 100 * float64(cnt) / float64(st.Blocks)
			}
			f.Heat.Add(x, pct[x])
		}
		f.Benchmarks = append(f.Benchmarks, w.Info().Name)
		f.Pct = append(f.Pct, pct)
	}
	return f, cells.err
}

// FracAboveMultiple returns the fraction of blocks (averaged over
// benchmarks) that are NOT at an exact multiple of MAG and not uncompressed
// — the blocks SLC can recover.
func (f Fig2) FracAboveMultiple() float64 {
	total := 0.0
	for _, pct := range f.Pct {
		for x := 1; x < len(pct)-1; x++ {
			total += pct[x]
		}
	}
	return total / float64(len(f.Pct)) / 100
}

// String renders per-benchmark distributions and the aggregate heat map.
func (f Fig2) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: distribution of compressed blocks at MAG %s (E2MC)\n", f.MAG)
	fmt.Fprintf(&b, "%-7s %6s %35s %6s\n", "", "0B", "1..31B (percent per 4B bin)", "32B")
	for i, name := range f.Benchmarks {
		pct := f.Pct[i]
		fmt.Fprintf(&b, "%-7s %5.1f%% ", name, pct[0])
		for x := 1; x < len(pct)-1; x += 4 {
			sum := 0.0
			for k := x; k < x+4 && k < len(pct)-1; k++ {
				sum += pct[k]
			}
			fmt.Fprintf(&b, " %4.1f", sum)
		}
		fmt.Fprintf(&b, " %5.1f%%\n", pct[len(pct)-1])
	}
	fmt.Fprintf(&b, "\nHeat map (samples per [bytes-above-MAG × %%-of-blocks] cell):\n")
	b.WriteString(f.Heat.Render())
	fmt.Fprintf(&b, "blocks recoverable by SLC (above a multiple, compressed): %.0f%%\n",
		f.FracAboveMultiple()*100)
	return b.String()
}
