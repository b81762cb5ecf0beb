// Package workloads implements the paper's benchmark suite (Table III):
// nine memory-bound, approximation-amenable GPU kernels. Each workload
// executes functionally on the device memory image — so lossy compression
// perturbs real data and real outputs — and emits the per-warp coalesced
// access trace the timing simulator replays.
//
// Inputs are synthesised deterministically with the data character of the
// original benchmarks (smooth images, quantised market data, clustered
// coordinates). Sizes are scaled from the paper where needed to keep
// runtimes in seconds; compression operates per 128-byte block and is
// insensitive to total footprint. The inputs that cost the most to
// synthesise (the smooth images of TP, DCT and SRAD, FWT's signal) are built
// once per workload instance, on its first run, and shared read-only by
// every later run: the evaluation runs one instance under many
// configurations, several at a time.
package workloads

import (
	"fmt"

	"repro/internal/gpu/device"
	"repro/internal/gpu/trace"
	"repro/internal/metrics"
)

// Info is the Table III row for a workload.
type Info struct {
	Name   string
	Short  string // short description, as in Table III
	Input  string // input size description
	Metric metrics.Metric
	AR     int // number of approximated memory regions
}

// Ctx is the environment a workload runs in. Sync (re)compresses a region's
// blocks under the active configuration, mutating the device image when the
// mode decision is lossy; it must be called after filling inputs and after
// each kernel's stores. Rec collects the timing trace.
type Ctx struct {
	Dev  *device.Device
	Rec  *trace.Recorder
	Sync func(r device.Region)
}

// NewCtx bundles a context; sync and rec may be no-ops for functional-only
// runs.
func NewCtx(dev *device.Device, rec *trace.Recorder, sync func(device.Region)) *Ctx {
	if sync == nil {
		sync = func(device.Region) {}
	}
	return &Ctx{Dev: dev, Rec: rec, Sync: sync}
}

// Workload is one benchmark. Run allocates regions, fills inputs, executes
// the kernels and returns the output vector used for error evaluation.
type Workload interface {
	Info() Info
	Run(ctx *Ctx) ([]float64, error)
}

// Registry returns the paper's nine workloads in Table III order.
func Registry() []Workload {
	return []Workload{
		NewJM(),
		NewBS(),
		NewDCT(),
		NewFWT(),
		NewTP(),
		NewBP(),
		NewNN(),
		NewSRAD1(),
		NewSRAD2(),
	}
}

// FloatRegistry returns the post-paper HPC float-field workloads (ROADMAP
// item 2). They are deliberately not part of Registry(): the paper figures,
// the smoke matrix and the committed goldens iterate the Table III suite
// only, so adding scenarios here never perturbs them.
func FloatRegistry() []Workload {
	return []Workload{
		NewHPCSmooth(),
		NewHPCTurbulent(),
		NewHPCSparse(),
	}
}

// All returns every workload: the Table III suite followed by the HPC
// float fields.
func All() []Workload {
	return append(Registry(), FloatRegistry()...)
}

// ByName returns the workload with the given name, searching the Table III
// suite and the HPC float fields.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Info().Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q (available: %v)", name, AllNames())
}

// Names lists the Table III registry names in order.
func Names() []string {
	var out []string
	for _, w := range Registry() {
		out = append(out, w.Info().Name)
	}
	return out
}

// AllNames lists every workload name, Table III first.
func AllNames() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Info().Name)
	}
	return out
}
