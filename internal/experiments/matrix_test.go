package experiments

import (
	"strings"
	"testing"

	"repro/internal/compress"
)

// TestMatrixRegistryResolves pins the built-in subset names and asserts
// every registered subset resolves to cells whose codec names are valid
// registry names — a subset referring to an unregistered codec would
// otherwise only fail when someone runs it.
func TestMatrixRegistryResolves(t *testing.T) {
	want := []string{"fig2", "lossless-only", "new-codecs", "smoke"}
	got := MatrixNames()
	if len(got) < len(want) {
		t.Fatalf("MatrixNames() = %v, want at least %v", got, want)
	}
	for _, name := range want {
		if _, ok := LookupMatrix(name); !ok {
			t.Errorf("built-in matrix subset %q not registered (have %v)", name, got)
		}
	}
	for _, name := range got {
		full, comp, err := MatrixCells(name)
		if err != nil {
			t.Fatalf("MatrixCells(%q): %v", name, err)
		}
		// Only the tables, which render static configuration, have no
		// cells.
		if m, _ := LookupMatrix(name); len(full)+len(comp) == 0 && !strings.HasPrefix(m.Name, "table") {
			t.Errorf("matrix subset %q resolves to no cells", name)
		}
		for _, c := range append(append([]Cell{}, full...), comp...) {
			if _, ok := compress.Lookup(c.Config.Codec); !ok {
				t.Errorf("matrix subset %q cell %s × %s names unregistered codec %q",
					name, c.Workload.Info().Name, c.Config.Name, c.Config.Codec)
			}
			if c.Workload == nil {
				t.Errorf("matrix subset %q has a cell with a nil workload", name)
			}
		}
	}
}

// TestMatrixUnknownName asserts the error for a bad -matrix value names the
// available set, matching the codec registry's behaviour.
func TestMatrixUnknownName(t *testing.T) {
	_, _, err := MatrixCells("no-such-subset")
	if err == nil {
		t.Fatal("MatrixCells(no-such-subset) succeeded")
	}
	if !strings.Contains(err.Error(), "smoke") {
		t.Errorf("error %q does not list the available subsets", err)
	}
}

// TestMatrixSmokeCoversNewCodecs asserts CI's every-push subset exercises
// the post-paper codec families, so a bench.json trajectory exists for them
// from the commit that introduced them onward.
func TestMatrixSmokeCoversNewCodecs(t *testing.T) {
	_, comp, err := MatrixCells("smoke")
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[string]bool)
	for _, c := range comp {
		covered[c.Config.Codec] = true
	}
	for _, name := range NewCodecNames {
		if !covered[name] {
			t.Errorf("smoke subset does not cover new codec %q", name)
		}
	}
}

// TestMatrixTableValid asserts every entry of the evaluation table has a
// distinct, non-empty name and something to run or render, and that `all`
// renders every figure and table entry: a duplicate name would shadow the
// later entry in LookupMatrix.
func TestMatrixTableValid(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range matrices {
		if m.Name == "" || seen[m.Name] {
			t.Errorf("entry name %q is empty or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Cells == nil && m.Render == nil {
			t.Errorf("entry %q has neither cells nor a render", m.Name)
		}
	}
	var parts []string
	for _, m := range reportEntries() {
		parts = append(parts, m.Name)
	}
	want := "table2 table3 table1 fig1 fig2 fig7 fig8 fig9 ablations"
	if got := strings.Join(parts, " "); got != want {
		t.Errorf("the all report renders %q, want %q", got, want)
	}
}

// TestRenderReportsMissingCell asserts a render of a trajectory that lacks
// its cells fails naming a cell, instead of printing zeros.
func TestRenderReportsMissingCell(t *testing.T) {
	_, err := Figure7(&Trajectory{Target: "empty"})
	if err == nil || !strings.Contains(err.Error(), "E2MC@32B") {
		t.Fatalf("Figure7 of an empty trajectory: err %v, want a missing E2MC@32B cell", err)
	}
	if _, err := Figure1(&Trajectory{Target: "empty"}); err == nil {
		t.Fatal("Figure1 of an empty trajectory succeeded")
	}
}
