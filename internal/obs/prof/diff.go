package prof

import (
	"fmt"
	"sort"
	"strings"
)

// Perf-regression attribution: given two profile summaries (a baseline and a
// current run), rank symbols by how much CPU they gained or lost. This is
// what turns "step latency regressed 31%" from the bench gate into "the 27µs
// went into tensor.SpMMBatchInto" in the same CI log.

// SymbolDelta is one function's CPU change between two summaries.
type SymbolDelta struct {
	Name         string
	BaseSeconds  float64
	CurSeconds   float64
	DeltaSeconds float64
}

// DiffSymbols joins the flat-CPU tables of two summaries and returns the
// union sorted by |delta| descending, capped at n.
func DiffSymbols(base, cur Summary, n int) []SymbolDelta {
	baseBy := make(map[string]float64, len(base.TopFlat))
	for _, s := range base.TopFlat {
		baseBy[s.Name] = s.FlatSeconds
	}
	curBy := make(map[string]float64, len(cur.TopFlat))
	for _, s := range cur.TopFlat {
		curBy[s.Name] = s.FlatSeconds
	}
	names := make(map[string]bool, len(baseBy)+len(curBy))
	for k := range baseBy {
		names[k] = true
	}
	for k := range curBy {
		names[k] = true
	}
	out := make([]SymbolDelta, 0, len(names))
	for name := range names {
		d := SymbolDelta{
			Name:        name,
			BaseSeconds: baseBy[name],
			CurSeconds:  curBy[name],
		}
		d.DeltaSeconds = d.CurSeconds - d.BaseSeconds
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs(out[i].DeltaSeconds), abs(out[j].DeltaSeconds)
		if ai != aj {
			return ai > aj
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// FormatDiff renders a symbol diff as an aligned attribution table. Deltas
// are normalized per CPU-second of each run (the two summaries rarely cover
// identical wall time), so the share columns compare like for like.
func FormatDiff(base, cur Summary, n int) string {
	deltas := DiffSymbols(base, cur, n)
	var b strings.Builder
	fmt.Fprintf(&b, "profile attribution: baseline %.2fs sampled CPU vs current %.2fs\n",
		base.CPUSeconds, cur.CPUSeconds)
	if len(deltas) == 0 {
		b.WriteString("  (no symbols recorded on either side)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-52s %9s %9s %9s %8s\n", "symbol (flat)", "base s", "cur s", "delta s", "Δshare")
	for _, d := range deltas {
		var shareDelta float64
		if base.CPUSeconds > 0 && cur.CPUSeconds > 0 {
			shareDelta = d.CurSeconds/cur.CPUSeconds - d.BaseSeconds/base.CPUSeconds
		}
		fmt.Fprintf(&b, "  %-52s %9.3f %9.3f %+9.3f %+7.1f%%\n",
			trimSymbol(d.Name, 52), d.BaseSeconds, d.CurSeconds, d.DeltaSeconds, 100*shareDelta)
	}
	return b.String()
}

// FormatTop renders one summary's flat-CPU top table with a cumulative
// column and each symbol's share of total sampled CPU.
func FormatTop(s Summary, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "top symbols (%.2fs sampled CPU, %.0f%% labeled, %d windows):\n",
		s.CPUSeconds, 100*s.LabeledFraction, s.Windows)
	syms := s.TopFlat
	if len(syms) > n {
		syms = syms[:n]
	}
	if len(syms) == 0 {
		b.WriteString("  (no samples)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-52s %9s %7s %9s\n", "symbol", "flat s", "flat%", "cum s")
	for _, sym := range syms {
		var share float64
		if s.CPUSeconds > 0 {
			share = 100 * sym.FlatSeconds / s.CPUSeconds
		}
		fmt.Fprintf(&b, "  %-52s %9.3f %6.1f%% %9.3f\n",
			trimSymbol(sym.Name, 52), sym.FlatSeconds, share, sym.CumSeconds)
	}
	return b.String()
}

// FormatPhases renders the per-label CPU-seconds tables (phase, then rec).
func FormatPhases(s Summary) string {
	var b strings.Builder
	writeMap := func(title string, m map[string]float64) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range keys {
			var share float64
			if s.CPUSeconds > 0 {
				share = 100 * m[k] / s.CPUSeconds
			}
			fmt.Fprintf(&b, "  %-20s %9.3fs %6.1f%%\n", k, m[k], share)
		}
	}
	writeMap("cpu by phase", s.ByPhase)
	writeMap("cpu by recommender", s.ByRec)
	return b.String()
}

// trimSymbol shortens a fully qualified symbol from the left (the package
// path is the least informative part) to fit the table column.
func trimSymbol(name string, width int) string {
	if len(name) <= width {
		return name
	}
	return "…" + name[len(name)-width+1:]
}
