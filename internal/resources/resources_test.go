package resources

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestDescriptionSatisfies(t *testing.T) {
	d := Description{Cores: 8, MemoryMB: 16000, GPUs: 1, Software: []string{"blas", "mpi"}, Class: HPC}
	cases := []struct {
		name string
		c    Constraints
		want bool
	}{
		{"empty", Constraints{}, true},
		{"cores ok", Constraints{Cores: 8}, true},
		{"too many cores", Constraints{Cores: 9}, false},
		{"memory ok", Constraints{MemoryMB: 16000}, true},
		{"too much memory", Constraints{MemoryMB: 16001}, false},
		{"gpu ok", Constraints{GPUs: 1}, true},
		{"too many gpus", Constraints{GPUs: 2}, false},
		{"software present", Constraints{Software: []string{"mpi"}}, true},
		{"software missing", Constraints{Software: []string{"cuda"}}, false},
		{"class match", Constraints{Class: HPC}, true},
		{"class mismatch", Constraints{Class: Fog}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := d.Satisfies(tc.c); got != tc.want {
				t.Fatalf("Satisfies(%+v) = %v, want %v", tc.c, got, tc.want)
			}
		})
	}
}

func TestEffectiveDefaults(t *testing.T) {
	var c Constraints
	if c.EffectiveCores() != 1 || c.EffectiveNodes() != 1 {
		t.Fatal("zero constraints should default to 1 core, 1 node")
	}
}

// freeMemMB reads n's unreserved memory, which only tests observe.
func freeMemMB(n *Node) int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.freeMemMB
}

func TestReserveRelease(t *testing.T) {
	n := NewNode("n1", Description{Cores: 4, MemoryMB: 1000, Class: Cloud})
	c := Constraints{Cores: 3, MemoryMB: 600}
	if err := n.Reserve(c); err != nil {
		t.Fatal(err)
	}
	if n.FreeCores() != 1 || freeMemMB(n) != 400 {
		t.Fatalf("after reserve: cores=%d mem=%d", n.FreeCores(), freeMemMB(n))
	}
	// Second reservation must fail on memory.
	if err := n.Reserve(Constraints{MemoryMB: 500}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve err = %v, want ErrInsufficient", err)
	}
	n.Release(c)
	if n.FreeCores() != 4 || freeMemMB(n) != 1000 || n.Running() != 0 {
		t.Fatal("release did not restore capacity")
	}
}

func TestReleaseClampsToCapacity(t *testing.T) {
	n := NewNode("n1", Description{Cores: 2, MemoryMB: 100})
	n.Release(Constraints{Cores: 10, MemoryMB: 1000})
	if n.FreeCores() != 2 || freeMemMB(n) != 100 {
		t.Fatal("release exceeded capacity")
	}
}

func TestConcurrentReservationsNeverOversubscribe(t *testing.T) {
	n := NewNode("n1", Description{Cores: 10, MemoryMB: 10000})
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n.Reserve(Constraints{Cores: 1, MemoryMB: 1000}) == nil {
				mu.Lock()
				granted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != 10 {
		t.Fatalf("granted %d reservations on a 10-slot node", granted)
	}
}

func TestPoolAddRemove(t *testing.T) {
	p := NewPool()
	if err := p.Add(NewNode("a", MareNostrumNode)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(NewNode("a", MareNostrumNode)); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate add err = %v", err)
	}
	if err := p.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove("a"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("remove missing err = %v", err)
	}
}

func TestPoolFittingVsCapable(t *testing.T) {
	p := NewPool()
	small := NewNode("small", Description{Cores: 2, MemoryMB: 1000})
	big := NewNode("big", Description{Cores: 16, MemoryMB: 64000})
	_ = p.Add(small)
	_ = p.Add(big)

	c := Constraints{Cores: 2}
	if got := len(p.IndexFor(c).AppendCapable(nil)); got != 2 {
		t.Fatalf("Capable = %d nodes, want 2", got)
	}
	// Fill small: it stays capable but stops fitting.
	if err := small.Reserve(Constraints{Cores: 2}); err != nil {
		t.Fatal(err)
	}
	fitting := p.Fitting(c)
	if len(fitting) != 1 || fitting[0].Name() != "big" {
		t.Fatalf("Fitting = %v", fitting)
	}
	if got := len(p.IndexFor(c).AppendCapable(nil)); got != 2 {
		t.Fatalf("Capable after load = %d nodes, want 2", got)
	}
}

func TestPoolIterationDeterministic(t *testing.T) {
	p := NewPool()
	for _, name := range []string{"c", "a", "b"} {
		_ = p.Add(NewNode(name, FogDevice))
	}
	nodes := p.Nodes()
	want := []string{"c", "a", "b"} // insertion order
	for i, n := range nodes {
		if n.Name() != want[i] {
			t.Fatalf("iteration order %v, want insertion order %v", nodes, want)
		}
	}
}

// Property: for any sequence of reserve/release pairs, free capacity never
// goes negative and never exceeds the description.
func TestReservationInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		n := NewNode("x", Description{Cores: 8, MemoryMB: 8000, GPUs: 2})
		var held []Constraints
		for _, op := range ops {
			if op%2 == 0 {
				c := Constraints{
					Cores:    int(op%4) + 1,
					MemoryMB: int64(op%3) * 1000,
					GPUs:     int(op % 2),
				}
				if n.Reserve(c) == nil {
					held = append(held, c)
				}
			} else if len(held) > 0 {
				n.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if n.FreeCores() < 0 || n.FreeCores() > 8 {
				return false
			}
			if freeMemMB(n) < 0 || freeMemMB(n) > 8000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{HPC: "hpc", Cloud: "cloud", Fog: "fog", Edge: "edge"} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}
