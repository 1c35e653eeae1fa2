package deps

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// register records one task's accesses: AppendBatch of a batch of one.
func register(p *Processor, task TaskID, accs []Access) Result {
	return p.AppendBatch(nil, []TaskAccesses{{Task: task, Accesses: accs}})[0]
}

func reg(p *Processor, task TaskID, accs ...Access) Result {
	return register(p, task, accs)
}

func wantDeps(t *testing.T, got Result, want ...TaskID) {
	t.Helper()
	if len(got.Deps) != len(want) {
		t.Fatalf("deps = %v, want %v", got.Deps, want)
	}
	for i := range want {
		if got.Deps[i] != want[i] {
			t.Fatalf("deps = %v, want %v", got.Deps, want)
		}
	}
}

func TestRAWDependency(t *testing.T) {
	p := NewProcessor()
	r1 := reg(p, 1, Access{Data: 10, Dir: Out})
	wantDeps(t, r1) // producer has no deps
	r2 := reg(p, 2, Access{Data: 10, Dir: In})
	wantDeps(t, r2, 1)
	if r2.Reads[0] != (Version{Data: 10, Ver: 1}) {
		t.Fatalf("read version = %v, want d10v1", r2.Reads[0])
	}
}

func TestIndependentReadersDoNotDepend(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 10, Dir: Out})
	r2 := reg(p, 2, Access{Data: 10, Dir: In})
	r3 := reg(p, 3, Access{Data: 10, Dir: In})
	wantDeps(t, r2, 1)
	wantDeps(t, r3, 1)
}

func TestRenamingRemovesWARAndWAW(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 10, Dir: Out})
	reg(p, 2, Access{Data: 10, Dir: In})
	// Task 3 overwrites: with renaming there is no dependency at all.
	r3 := reg(p, 3, Access{Data: 10, Dir: Out})
	wantDeps(t, r3)
	if got := r3.Writes[0]; got != (Version{Data: 10, Ver: 2}) {
		t.Fatalf("write version = %v, want d10v2", got)
	}
	s := p.Stats()
	if s.WAR != 0 || s.WAW != 0 {
		t.Fatalf("renaming produced false deps: %+v", s)
	}
}

func TestWithoutRenamingProducesWARWAW(t *testing.T) {
	p := NewProcessor(Renaming(false))
	reg(p, 1, Access{Data: 10, Dir: Out})
	reg(p, 2, Access{Data: 10, Dir: In})
	r3 := reg(p, 3, Access{Data: 10, Dir: Out})
	wantDeps(t, r3, 1, 2) // WAW on 1, WAR on 2
	s := p.Stats()
	if s.WAR != 1 || s.WAW != 1 {
		t.Fatalf("stats = %+v, want WAR=1 WAW=1", s)
	}
}

func TestInOutChainSerialises(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 5, Dir: Out})
	r2 := reg(p, 2, Access{Data: 5, Dir: InOut})
	r3 := reg(p, 3, Access{Data: 5, Dir: InOut})
	wantDeps(t, r2, 1)
	wantDeps(t, r3, 2)
	if r3.Reads[0].Ver != 2 || r3.Writes[0].Ver != 3 {
		t.Fatalf("inout versions: reads %v writes %v", r3.Reads, r3.Writes)
	}
}

func TestReadOfUnwrittenDataHasNoDeps(t *testing.T) {
	p := NewProcessor()
	r := reg(p, 1, Access{Data: 99, Dir: In})
	wantDeps(t, r)
	if r.Reads[0].Ver != 0 {
		t.Fatalf("read of initial data has version %d, want 0", r.Reads[0].Ver)
	}
}

func TestConcurrentMembersIndependent(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 7, Dir: Out})
	r2 := reg(p, 2, Access{Data: 7, Dir: Concurrent})
	r3 := reg(p, 3, Access{Data: 7, Dir: Concurrent})
	wantDeps(t, r2, 1)
	wantDeps(t, r3, 1) // not on 2
	// A later reader waits for the whole group.
	r4 := reg(p, 4, Access{Data: 7, Dir: In})
	wantDeps(t, r4, 1, 2, 3)
}

func TestWriterAfterConcurrentGroupWaits(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 7, Dir: Concurrent})
	reg(p, 2, Access{Data: 7, Dir: Concurrent})
	r3 := reg(p, 3, Access{Data: 7, Dir: Out})
	wantDeps(t, r3, 1, 2)
}

func TestCommutativeGroup(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 3, Dir: Out})
	rA := reg(p, 2, Access{Data: 3, Dir: Commutative})
	rB := reg(p, 3, Access{Data: 3, Dir: Commutative})
	wantDeps(t, rA, 1)
	wantDeps(t, rB, 1)
	r4 := reg(p, 4, Access{Data: 3, Dir: InOut})
	wantDeps(t, r4, 1, 2, 3)
}

func TestMultipleParams(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 1, Dir: Out})
	reg(p, 2, Access{Data: 2, Dir: Out})
	r3 := reg(p, 3, Access{Data: 1, Dir: In}, Access{Data: 2, Dir: In}, Access{Data: 3, Dir: Out})
	wantDeps(t, r3, 1, 2)
	if len(r3.Reads) != 2 || len(r3.Writes) != 1 {
		t.Fatalf("reads=%v writes=%v", r3.Reads, r3.Writes)
	}
}

func TestDepsAreDeduplicated(t *testing.T) {
	p := NewProcessor()
	reg(p, 1, Access{Data: 1, Dir: Out}, Access{Data: 2, Dir: Out})
	r2 := reg(p, 2, Access{Data: 1, Dir: In}, Access{Data: 2, Dir: In})
	wantDeps(t, r2, 1)
}

func TestDirectionStringAndPredicates(t *testing.T) {
	cases := []struct {
		d      Direction
		s      string
		reads  bool
		writes bool
	}{
		{In, "IN", true, false},
		{Out, "OUT", false, true},
		{InOut, "INOUT", true, true},
		{Concurrent, "CONCURRENT", true, true},
		{Commutative, "COMMUTATIVE", true, true},
	}
	for _, c := range cases {
		if c.d.String() != c.s {
			t.Errorf("%v.String() = %q, want %q", int(c.d), c.d.String(), c.s)
		}
		if c.d.Reads() != c.reads || c.d.Writes() != c.writes {
			t.Errorf("%s predicates wrong", c.s)
		}
	}
}

func TestCurrentVersion(t *testing.T) {
	p := NewProcessor()
	if v := p.CurrentVersion(42); v.Ver != 0 {
		t.Fatalf("initial version = %d, want 0", v.Ver)
	}
	reg(p, 1, Access{Data: 42, Dir: Out})
	reg(p, 2, Access{Data: 42, Dir: InOut})
	if v := p.CurrentVersion(42); v.Ver != 2 {
		t.Fatalf("version = %d, want 2", v.Ver)
	}
}

// Property: dependencies always point to earlier-registered tasks when task
// IDs are registered in increasing order, so the graph is acyclic by
// construction.
func TestDepsPointBackwards(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProcessor()
		nData := rng.Intn(5) + 1
		dirs := []Direction{In, Out, InOut, Concurrent, Commutative}
		for task := TaskID(0); task < 60; task++ {
			var accs []Access
			used := make(map[DataID]bool)
			for k := 0; k < rng.Intn(3)+1; k++ {
				d := DataID(rng.Intn(nData))
				if used[d] {
					continue
				}
				used[d] = true
				accs = append(accs, Access{Data: d, Dir: dirs[rng.Intn(len(dirs))]})
			}
			res := register(p, task, accs)
			for _, dep := range res.Deps {
				if dep >= task {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: renaming never yields more dependency edges than no-renaming on
// the same access trace.
func TestRenamingNeverAddsEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng1 := rand.New(rand.NewSource(seed))
		rng2 := rand.New(rand.NewSource(seed))
		pr := NewProcessor()
		pn := NewProcessor(Renaming(false))
		gen := func(rng *rand.Rand) []Access {
			dirs := []Direction{In, Out, InOut}
			return []Access{{Data: DataID(rng.Intn(4)), Dir: dirs[rng.Intn(3)]}}
		}
		for task := TaskID(0); task < 50; task++ {
			register(pr, task, gen(rng1))
			register(pn, task, gen(rng2))
		}
		return pr.Stats().Total() <= pn.Stats().Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterBatchMatchesSequentialRegister(t *testing.T) {
	accesses := [][]Access{
		{{Data: 1, Dir: Out}},
		{{Data: 1, Dir: In}, {Data: 2, Dir: Out}},
		{{Data: 1, Dir: InOut}},
		{{Data: 2, Dir: In}, {Data: 1, Dir: In}},
		nil, // access-free tasks are valid
	}

	seq := NewProcessor()
	var want []Result
	for i, acc := range accesses {
		want = append(want, register(seq, TaskID(i), acc))
	}

	batched := NewProcessor()
	batch := make([]TaskAccesses, len(accesses))
	for i, acc := range accesses {
		batch[i] = TaskAccesses{Task: TaskID(i), Accesses: acc}
	}
	got := batched.AppendBatch(nil, batch)

	if len(got) != len(want) {
		t.Fatalf("results = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Deps) != len(want[i].Deps) ||
			len(got[i].Reads) != len(want[i].Reads) ||
			len(got[i].Writes) != len(want[i].Writes) {
			t.Fatalf("task %d: batch %+v != sequential %+v", i, got[i], want[i])
		}
		for j := range want[i].Deps {
			if got[i].Deps[j] != want[i].Deps[j] {
				t.Fatalf("task %d deps: %v != %v", i, got[i].Deps, want[i].Deps)
			}
		}
	}
	if batched.Stats() != seq.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", batched.Stats(), seq.Stats())
	}
}

func TestVersionOrderAndString(t *testing.T) {
	a, b, c := Version{Data: 1, Ver: 2}, Version{Data: 2, Ver: 0}, Version{Data: 2, Ver: 1}
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || c.Compare(b) <= 0 || a.Compare(a) != 0 {
		t.Fatal("Compare is not the (Data, Ver) order")
	}
	if got := (Version{Data: 7, Ver: 2}).String(); got != "d7v2" {
		t.Fatalf("String = %q", got)
	}
}
