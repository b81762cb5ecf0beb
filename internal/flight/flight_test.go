package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOnce(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("worker %d got %d, want 42", i, v)
		}
	}
}

func TestDoMemoisesErrors(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := g.Do("k", func() (int, error) {
			calls.Add(1)
			return 0, boom
		})
		if err != boom {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestDoDistinctKeys(t *testing.T) {
	var g Group[string]
	a, _ := g.Do("a", func() (string, error) { return "A", nil })
	b, _ := g.Do("b", func() (string, error) { return "B", nil })
	if a != "A" || b != "B" {
		t.Fatalf("got %q, %q", a, b)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

// TestDoPanicReleasesWaiters pins the panic contract: a panicking fn must
// not leave concurrent or future requesters blocked, and the key resolves to
// an error afterwards.
func TestDoPanicReleasesWaiters(t *testing.T) {
	var g Group[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		g.Do("k", func() (int, error) { panic("kaboom") })
	}()
	if _, err := g.Do("k", func() (int, error) { return 1, nil }); err == nil {
		t.Fatal("post-panic Do returned nil error")
	}
}
