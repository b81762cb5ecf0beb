package trace

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compress"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(func(addr uint64) (int, bool) { return 2, true })
	r.BeginKernel("k1", 2)
	r.Access(0, 0x1000, false, 10)
	r.Access(0, 0x1084, true, 5) // truncated to block 0x1080
	r.Access(1, 0x2000, false, 0)
	tr := r.Trace()
	if len(tr.Kernels) != 1 {
		t.Fatalf("kernels = %d", len(tr.Kernels))
	}
	k := tr.Kernels[0]
	if len(k.Warps[0]) != 2 || len(k.Warps[1]) != 1 {
		t.Fatalf("warp access counts wrong: %d, %d", len(k.Warps[0]), len(k.Warps[1]))
	}
	a := k.Warps[0][1]
	if a.Addr != 0x1080 {
		t.Errorf("addr not block aligned: %#x", a.Addr)
	}
	if !a.Write || a.Bursts != 2 || !a.Compressed || a.Compute != 5 {
		t.Errorf("access fields lost: %+v", a)
	}
}

func TestRecorderClamping(t *testing.T) {
	r := NewRecorder(func(addr uint64) (int, bool) { return 0, false })
	r.BeginKernel("k", 1)
	r.Access(0, 0, false, -5)
	a := r.Trace().Kernels[0].Warps[0][0]
	if a.Bursts != 1 {
		t.Errorf("bursts clamped to %d, want 1", a.Bursts)
	}
	if a.Compute != 0 {
		t.Errorf("compute clamped to %d, want 0", a.Compute)
	}
}

func TestAccessBeforeKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Access before BeginKernel")
		}
	}()
	NewRecorder(func(uint64) (int, bool) { return 1, false }).Access(0, 0, false, 0)
}

func TestStats(t *testing.T) {
	r := NewRecorder(func(addr uint64) (int, bool) { return 3, true })
	r.BeginKernel("a", 2)
	r.Access(0, 0, false, 7)
	r.Access(1, 128, true, 3)
	r.BeginKernel("b", 1)
	r.Access(0, 256, false, 1)
	s := r.Trace().Stats(compress.MAG32)
	if s.Kernels != 2 || s.Warps != 3 || s.Accesses != 3 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("rw wrong: %+v", s)
	}
	if s.Bursts != 9 || s.Bytes != 9*32 {
		t.Errorf("volume wrong: %+v", s)
	}
	if s.Compute != 11 {
		t.Errorf("compute = %d, want 11", s.Compute)
	}
}

func TestRecorderSinkGetsFinishedKernels(t *testing.T) {
	r := NewRecorder(func(uint64) (int, bool) { return 1, false })
	var got []string
	r.Sink = func(k *Kernel) { got = append(got, fmt.Sprintf("%s:%d", k.Name, len(k.Warps[0]))) }
	r.BeginKernel("a", 1)
	r.Access(0, 0, false, 1)
	if len(got) != 0 {
		t.Fatalf("kernel handed to the sink before it finished: %v", got)
	}
	r.BeginKernel("b", 1) // finishes a
	r.Access(0, 128, false, 1)
	r.Access(0, 256, false, 1)
	r.Close() // finishes b
	r.Close() // idempotent
	want := []string{"a:1", "b:2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sink got %v, want %v", got, want)
	}
	if n := len(r.Trace().Kernels); n != 2 {
		t.Errorf("trace kept %d kernels, want 2", n)
	}
}
