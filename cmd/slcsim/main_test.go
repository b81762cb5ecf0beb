package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListSucceeds(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 || !strings.Contains(stdout, "SRAD1") {
		t.Fatalf("exit %d, stdout: %s", code, stdout)
	}
}

func TestListCodecsSucceeds(t *testing.T) {
	code, stdout, _ := runCLI("-list-codecs")
	if code != 0 || !strings.Contains(stdout, "e2mc") {
		t.Fatalf("exit %d, stdout: %s", code, stdout)
	}
}

func TestUnknownBenchExitsWithAvailableSet(t *testing.T) {
	code, _, stderr := runCLI("-bench", "no-such-bench")
	if code != 1 {
		t.Fatalf("unknown bench exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "available") || !strings.Contains(stderr, "SRAD1") {
		t.Fatalf("stderr does not list the available benchmarks: %s", stderr)
	}
}

func TestUnknownCodecExitsWithAvailableSet(t *testing.T) {
	code, _, stderr := runCLI("-bench", "NN", "-codec", "no-such-codec")
	if code != 1 {
		t.Fatalf("unknown codec exited %d, want 1", code)
	}
	if !strings.Contains(stderr, "available") || !strings.Contains(stderr, "e2mc") {
		t.Fatalf("stderr does not list the available codecs: %s", stderr)
	}
}

// TestInvalidMAGFailsFast pins the validate-before-work ordering: an invalid
// MAG or an out-of-range threshold must be rejected by configuration
// validation, not discovered after the golden run and entropy-table
// training. -v turns progress on, so any work done first would show in
// stderr.
func TestInvalidMAGFailsFast(t *testing.T) {
	for _, tc := range []struct {
		flag, value, want string
	}{
		{"-mag", "7", "invalid MAG"},
		{"-threshold", "200", "threshold 1600 bits out of range"},
	} {
		code, _, stderr := runCLI("-v", "-bench", "NN", "-codec", "tslc-opt", tc.flag, tc.value)
		if code != 1 {
			t.Fatalf("%s %s exited %d, want 1", tc.flag, tc.value, code)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%s %s: stderr does not report %q: %s", tc.flag, tc.value, tc.want, stderr)
		}
		if strings.Contains(stderr, "golden") || strings.Contains(stderr, "training") || strings.Contains(stderr, "table") {
			t.Fatalf("%s %s: did work before rejecting the configuration: %s", tc.flag, tc.value, stderr)
		}
	}
}

// TestStrayArgumentsExitNonZero: stray arguments are rejected before any
// mode runs — a listing, or a cell (e.g. "-bench TP e2mc" with -codec
// forgotten), which would otherwise start seconds of work.
func TestStrayArgumentsExitNonZero(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"list", []string{"-list", "stray"}},
		{"bench", []string{"-bench", "NN", "stray"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, _ := runCLI(tc.args...)
			if code != 2 {
				t.Fatalf("stray arguments exited %d, want 2", code)
			}
			if stdout != "" {
				t.Fatalf("ran before rejecting the arguments: %s", stdout)
			}
		})
	}
}

func TestBadFlagExitsNonZero(t *testing.T) {
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestNoBenchExitsNonZero(t *testing.T) {
	if code, _, _ := runCLI(); code != 2 {
		t.Fatalf("missing -bench exited %d, want 2", code)
	}
}

// TestTraceAndDistributionMatchRunner: slcsim prints the cell's trace
// summary and compressed-block distribution from the RunResult it holds.
// The printed trace totals must equal a direct Runner.Run of the same cell,
// and the distribution's block counts must sum to the printed block total.
func TestTraceAndDistributionMatchRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TP cell twice")
	}
	code, stdout, stderr := runCLI("-bench", "TP", "-codec", "e2mc")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	w, err := workloads.ByName("TP")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := experiments.NamedConfig("e2mc", compress.MAG32, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.NewRunner().Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := regexp.MustCompile(`trace: (\d+) kernels, (\d+) warps, (\d+) accesses \(r (\d+) / w (\d+)\), (\d+) bursts, ([\d.]+) MB`).
		FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no trace summary in output:\n%s", stdout)
	}
	tr := want.Trace
	for i, v := range []int{tr.Kernels, tr.Warps, tr.Accesses, tr.Reads, tr.Writes, tr.Bursts} {
		if got := atoi(t, m[i+1]); got != v {
			t.Errorf("trace field %d printed %d, Runner.Run has %d", i, got, v)
		}
	}
	if mb := fmt.Sprintf("%.2f", float64(tr.Bytes)/1e6); m[7] != mb {
		t.Errorf("trace MB printed %s, Runner.Run has %s", m[7], mb)
	}

	total := regexp.MustCompile(`compression: .*, (\d+) blocks \(`).FindStringSubmatch(stdout)
	if total == nil {
		t.Fatalf("no block total in output:\n%s", stdout)
	}
	lines := regexp.MustCompile(`(?m)^\s+(\d+)B\s+(\d+) blocks \(`).FindAllStringSubmatch(stdout, -1)
	if len(lines) == 0 {
		t.Fatalf("no block distribution in output:\n%s", stdout)
	}
	sum := 0
	for _, l := range lines {
		x, n := atoi(t, l[1]), atoi(t, l[2])
		if int64(n) != want.Comp.AboveMAG[x] {
			t.Errorf("%dB printed %d blocks, Runner.Run has %d", x, n, want.Comp.AboveMAG[x])
		}
		sum += n
	}
	if blocks := atoi(t, total[1]); sum != blocks || int64(blocks) != want.Comp.Blocks {
		t.Errorf("distribution sums to %d blocks, printed total %d, Runner.Run has %d", sum, blocks, want.Comp.Blocks)
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
