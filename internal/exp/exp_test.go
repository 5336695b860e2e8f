package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quick returns CI-scale options: small rooms, short horizons, single
// training configuration.
func quick() Options { return Options{Scale: 0.25, Quick: true, Seed: 1} }

func TestTable4QuickShape(t *testing.T) {
	tab, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, m := range methodOrder {
		if tab.Row(m) == nil {
			t.Fatalf("missing method %s", m)
		}
	}
	if tab.Row("POSHGNN").Utility <= 0 {
		t.Error("POSHGNN earned no utility")
	}
	// (The COMURNet-is-slower property only emerges at realistic room
	// sizes; the full-scale check lives in the benchmark suite.)
	out := tab.Format()
	for _, want := range []string{"Table IV", "AFTER Utility", "POSHGNN", "Running Time"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestTable5QuickAblation(t *testing.T) {
	tab, err := Table5(quick())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Full", "PDR w/ MIA", "Only PDR"}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, m := range want {
		if tab.Row(m) == nil {
			t.Fatalf("missing variant %s", m)
		}
		if tab.Row(m).Utility < 0 {
			t.Errorf("%s negative utility", m)
		}
	}
}

func TestTable7QuickMonotonicity(t *testing.T) {
	tab, err := Table7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// More remote users → fewer physical blockers → utility should not
	// collapse; check the 75% row is at least competitive with the 25% row.
	hi := tab.Rows[0].Utility
	lo := tab.Rows[2].Utility
	if hi <= 0 || lo < 0 {
		t.Fatalf("degenerate utilities: %v vs %v", hi, lo)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	if got := o.scaleInt(200, 20); got != 100 {
		t.Errorf("scaleInt = %d", got)
	}
	if got := o.scaleInt(10, 6); got != 6 {
		t.Errorf("floor not applied: %d", got)
	}
	if (Options{}).withDefaults().Scale != 1 {
		t.Error("default scale")
	}
}

func TestDatasetConfigDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	timik := o.datasetConfig(0)
	if timik.RoomUsers != 200 || timik.T != 100 {
		t.Errorf("timik cfg = %+v", timik)
	}
	hub := o.datasetConfig(2)
	if hub.RoomUsers != 30 {
		t.Errorf("hub cfg = %+v", hub)
	}
}

func TestSpecQuickVsFull(t *testing.T) {
	q := Options{Quick: true}.spec()
	if len(q.alphas) != 1 || len(q.seeds) != 1 || q.epochs != 3 {
		t.Errorf("quick spec = %+v", q)
	}
	f := Options{}.spec()
	if len(f.alphas) < 2 || len(f.seeds) < 3 {
		t.Errorf("full spec = %+v", f)
	}
}

// TestTable2QuickShape checks the paper's Table II shapes at quick scale:
// POSHGNN earns the highest utility, COMURNet's hard constraint gives it
// less view occlusion than every other baseline, and the paired t-test
// against the strongest competitor is significant.
func TestTable2QuickShape(t *testing.T) {
	tab, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	posh, comur := tab.Row("POSHGNN"), tab.Row("COMURNet")
	if posh == nil || comur == nil {
		t.Fatalf("missing rows in\n%s", tab.Format())
	}
	for _, m := range methodOrder[1:] {
		r := tab.Row(m)
		if r == nil {
			t.Fatalf("missing method %s", m)
		}
		if r.Utility >= posh.Utility {
			t.Errorf("%s utility %.2f >= POSHGNN %.2f", m, r.Utility, posh.Utility)
		}
		if m != "COMURNet" && r.OcclusionRate <= comur.OcclusionRate {
			t.Errorf("%s occlusion %.3f <= COMURNet %.3f", m, r.OcclusionRate, comur.OcclusionRate)
		}
	}
	p := -1.0
	for _, n := range tab.Notes {
		if m := pValueNote.FindStringSubmatch(n); m != nil {
			if p, err = strconv.ParseFloat(m[1], 64); err != nil {
				t.Fatalf("note %q: %v", n, err)
			}
		}
	}
	if p < 0 {
		t.Fatalf("no significance note in %q", tab.Notes)
	}
	if p >= 0.05 {
		t.Errorf("POSHGNN vs strongest competitor p = %v, want < 0.05", p)
	}
	if got := table2Digest(tab); got != table2QuickDigest {
		t.Errorf("quick Table II digest %s, want %s; table:\n%s", got, table2QuickDigest, tab.Format())
	}
}

// table2QuickDigest pins every non-timing cell of the quick Table II bit for
// bit: model selection, training and every recommender's evaluation feed
// it, so any change to an inference engine that moves a single bit of a
// probability that crosses a decision shows here. The value is pinned for
// linux/amd64, where CI and the benchmark run; other platforms may fuse
// multiply-adds in the autodiff training path and land on other bits.
const table2QuickDigest = "3b39db16916b6048"

// table2Digest hashes the method, the exact float64 bits of every metric
// except StepTime (wall clock), the robustness counters, and the notes.
func table2Digest(tab *Table) string {
	h := sha256.New()
	for _, r := range tab.Rows {
		fmt.Fprintf(h, "%s|%+v|", r.Method, r.Robustness)
		for _, v := range []float64{r.Utility, r.Preference, r.Social, r.OcclusionRate, r.RenderedMean, r.Churn} {
			fmt.Fprintf(h, "%016x|", math.Float64bits(v))
		}
	}
	for _, n := range tab.Notes {
		fmt.Fprintf(h, "%s\n", n)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

var pValueNote = regexp.MustCompile(`^POSHGNN vs \S+ \(strongest competitor\): paired t-test over \d+ steps, p = (\S+)$`)
