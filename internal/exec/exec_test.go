package exec

import (
	"errors"
	"testing"

	"pytfhe/internal/tfhe/lwe"
)

func TestCheckRawInputs(t *testing.T) {
	good := []*lwe.Sample{lwe.NewSample(4), lwe.NewSample(4)}
	if err := CheckRawInputs(good, 2, 4); err != nil {
		t.Fatalf("valid inputs rejected: %v", err)
	}
	if err := CheckRawInputs(good, 3, 4); err == nil {
		t.Fatal("short inputs not rejected")
	}
	if err := CheckRawInputs([]*lwe.Sample{lwe.NewSample(4), nil}, 2, 4); !errors.Is(err, ErrNilInput) {
		t.Fatalf("nil input error = %v, want ErrNilInput", err)
	}
	if err := CheckRawInputs(good, 2, 8); err == nil {
		t.Fatal("wrong dimension not rejected")
	}
	// A non-positive dim skips the dimension check (the Plain backend).
	if err := CheckRawInputs(good, 2, 0); err != nil {
		t.Fatalf("dim 0 must skip the dimension check: %v", err)
	}
	if err := CheckRawInputs([]*lwe.Sample{nil}, 1, 0); !errors.Is(err, ErrNilInput) {
		t.Fatalf("dim 0 must still reject nil inputs: %v", err)
	}
}

// TestPoolRecycles: the arena's free list, as plan runtimes use it —
// a returned sample is handed out again, Put(nil) is ignored, and an empty
// free list allocates a fresh sample of the arena's dimension.
func TestPoolRecycles(t *testing.T) {
	p := NewArena(4)
	a := p.Get()
	if a.Dimension() != 4 {
		t.Fatalf("dimension = %d, want 4", a.Dimension())
	}
	p.Put(a)
	if b := p.Get(); b != a {
		t.Fatal("free-list sample not reused")
	}
	p.Put(nil) // no-op
	if p.Live() != 1 {
		t.Fatalf("Put(nil) moved live to %d, want 1", p.Live())
	}
	if s := p.Get(); s == nil || s == a || s.Dimension() != 4 {
		t.Fatal("empty free list must allocate a fresh sample of the arena's dimension")
	}
}

func TestArenaAccounting(t *testing.T) {
	a := NewArena(4)
	s1, s2 := a.Get(), a.Get()
	if a.Live() != 2 || a.HighWater() != 2 {
		t.Fatalf("live=%d highWater=%d, want 2/2", a.Live(), a.HighWater())
	}
	a.Put(s1)
	a.Put(s2)
	if a.Live() != 0 || a.HighWater() != 2 {
		t.Fatalf("after put: live=%d highWater=%d, want 0/2", a.Live(), a.HighWater())
	}
	if s := a.Get(); s != s2 && s != s1 {
		t.Fatal("arena free list not reused")
	}
	if a.HighWater() != 2 {
		t.Fatalf("high water moved to %d on re-get within peak", a.HighWater())
	}
}
