package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cellDigest is one line of the evaluation golden: a cell's memo key and an
// FNV-1a-64 of its result's canonical (compact) JSON encoding.
type cellDigest struct {
	Cell string
	FNV  string
}

func digest(key string, v any) (cellDigest, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return cellDigest{}, fmt.Errorf("%s: %w", key, err)
	}
	h := fnv.New64a()
	h.Write(p)
	return cellDigest{Cell: key, FNV: fmt.Sprintf("%016x", h.Sum64())}, nil
}

// TestEvalGolden pins the whole paper evaluation: every cell of
// `slcbench -all`, in `-all -json` order, by a digest of its result
// (testdata/eval_golden.json), and the rendered `-all` text report
// (testdata/eval_report_golden.txt). A change that moves any simulated
// number, on any GOARCH or GOAMD64 level, fails here. Regenerate
// deliberately with
//
//	go test ./internal/experiments/ -run EvalGolden -update
//
// after an intentional model change, and name the change in CHANGES.md.
func TestEvalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("whole evaluation in -short mode")
	}
	if raceEnabled {
		t.Skip("whole evaluation under the race detector")
	}
	all, ok := LookupMatrix("all")
	if !ok {
		t.Fatal("no entry \"all\" in the evaluation table")
	}
	traj, err := all.Evaluate(NewRunner(), "all", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := all.Render(traj)
	if err != nil {
		t.Fatal(err)
	}
	report := rendered.String()

	var got []cellDigest
	for _, res := range traj.Results {
		d, err := digest(cellKey(res.Workload, res.Config), res)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	for _, res := range traj.Compression {
		d, err := digest(cellKey(res.Workload, res.Config)+"|comp", res)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d)
	}
	digests, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	digests = append(digests, '\n')

	cellsPath := filepath.Join("testdata", "eval_golden.json")
	reportPath := filepath.Join("testdata", "eval_report_golden.txt")
	if *update {
		for _, f := range []struct {
			path string
			data []byte
		}{{cellsPath, digests}, {reportPath, []byte(report)}} {
			if err := os.WriteFile(f.path, f.data, 0o666); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", f.path, len(f.data))
		}
		return
	}

	var want []cellDigest
	p, err := os.ReadFile(cellsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if err := json.Unmarshal(p, &want); err != nil {
		t.Fatalf("%s: %v", cellsPath, err)
	}
	if len(got) != len(want) {
		t.Errorf("evaluation has %d cells, golden %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("cell %d: got %s %s, golden %s %s", i, got[i].Cell, got[i].FNV, want[i].Cell, want[i].FNV)
		}
	}
	wantReport, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if report != string(wantReport) {
		gotLines, wantLines := strings.Split(report, "\n"), strings.Split(string(wantReport), "\n")
		i := 0
		for i < len(gotLines) && i < len(wantLines) && gotLines[i] == wantLines[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return ls[i]
			}
			return "<end of report>"
		}
		t.Errorf("-all report diverged from %s at line %d:\n got: %s\nwant: %s",
			reportPath, i+1, line(gotLines), line(wantLines))
	}
}
