package deps

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// oracle is the access processor as it stood before registration was
// carved from slabs: a map per task for de-duplication, a fresh list per
// result, readers kept under renaming too. It stays as the reference the
// slab-built results are held to.
type oracle struct {
	renaming bool
	data     map[DataID]*dataState
	stats    Stats
}

func (p *oracle) register(task TaskID, accesses []Access) Result {
	if len(accesses) == 0 {
		return Result{}
	}
	depSet := make(map[TaskID]struct{})
	var res Result
	addDep := func(t TaskID, kind EdgeKind) {
		if t == NoTask || t == task {
			return
		}
		if _, dup := depSet[t]; dup {
			return
		}
		depSet[t] = struct{}{}
		switch kind {
		case RAW:
			p.stats.RAW++
		case WAR:
			p.stats.WAR++
		case WAW:
			p.stats.WAW++
		case Group:
			p.stats.Group++
		}
	}
	for _, a := range accesses {
		st, ok := p.data[a.Data]
		if !ok {
			st = &dataState{lastWriter: NoTask}
			p.data[a.Data] = st
		}
		switch a.Dir {
		case In:
			addDep(st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			st.readers = append(st.readers, task)
		case Out:
			if !p.renaming {
				addDep(st.lastWriter, WAW)
				for _, r := range st.readers {
					addDep(r, WAR)
				}
			}
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})
		case InOut:
			addDep(st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				addDep(g, Group)
			}
			if !p.renaming {
				for _, r := range st.readers {
					addDep(r, WAR)
				}
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})
		case Concurrent, Commutative:
			addDep(st.lastWriter, RAW)
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})
			st.groupAccess = append(st.groupAccess, task)
		}
	}
	res.Deps = make([]TaskID, 0, len(depSet))
	for t := range depSet {
		res.Deps = append(res.Deps, t)
	}
	sort.Slice(res.Deps, func(i, j int) bool { return res.Deps[i] < res.Deps[j] })
	return res
}

func sameResult(a, b Result) bool {
	return slices.Equal(a.Deps, b.Deps) && slices.Equal(a.Reads, b.Reads) && slices.Equal(a.Writes, b.Writes)
}

// randomBatch draws tasks with 0–5 accesses over a few data, all five
// directions (and, rarely, an undeclared one, which every layer ignores),
// repeated data within one task included.
func randomBatch(rng *rand.Rand, firstID TaskID, n, data int) []TaskAccesses {
	batch := make([]TaskAccesses, n)
	for i := range batch {
		acc := make([]Access, rng.Intn(6))
		for j := range acc {
			acc[j] = Access{Data: DataID(rng.Intn(data)), Dir: Direction(rng.Intn(6))}
			if acc[j].Dir == 0 && rng.Intn(8) > 0 {
				acc[j].Dir = In
			}
		}
		batch[i] = TaskAccesses{Task: firstID + TaskID(i), Accesses: acc}
	}
	return batch
}

// TestSlabRegistrationMatchesOracle holds Register and RegisterBatch, with
// and without renaming, to the map-based oracle on seeded random access
// lists: the same Deps, Reads and Writes per task and the same Stats by
// kind, however the stream is cut into batches.
func TestSlabRegistrationMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, renaming := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			want := &oracle{renaming: renaming, data: make(map[DataID]*dataState)}
			var opts []Option
			if !renaming {
				opts = append(opts, WithoutRenaming())
			}
			single, batched := NewProcessor(opts...), NewProcessor(opts...)
			next := TaskID(1)
			for round := 0; round < 12; round++ {
				batch := randomBatch(rng, next, rng.Intn(40), 1+rng.Intn(12))
				next += TaskID(len(batch))
				got := batched.RegisterBatch(batch)
				for i, b := range batch {
					w := want.register(b.Task, b.Accesses)
					if one := single.Register(b.Task, b.Accesses); !sameResult(one, w) {
						t.Fatalf("seed %d renaming %v task %d %v: Register %+v, oracle %+v", seed, renaming, b.Task, b.Accesses, one, w)
					}
					if !sameResult(got[i], w) {
						t.Fatalf("seed %d renaming %v task %d %v: RegisterBatch %+v, oracle %+v", seed, renaming, b.Task, b.Accesses, got[i], w)
					}
				}
				if single.Stats() != want.stats || batched.Stats() != want.stats {
					t.Fatalf("seed %d renaming %v: stats single %+v batch %+v, oracle %+v", seed, renaming, single.Stats(), batched.Stats(), want.stats)
				}
			}
		}
	}
}

// TestCarvedListsDoNotAlias appends to every list of every task of a batch
// and checks no other task's lists moved: each list is carved with cap ==
// len, so the append copies out of the shared array.
func TestCarvedListsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewProcessor(WithoutRenaming()) // more edges per task
	p.RegisterBatch(randomBatch(rng, 1, 50, 6))
	got := p.RegisterBatch(randomBatch(rng, 51, 200, 6))
	want := make([]Result, len(got))
	for i, r := range got {
		want[i] = Result{Deps: slices.Clone(r.Deps), Reads: slices.Clone(r.Reads), Writes: slices.Clone(r.Writes)}
	}
	for i, r := range got {
		if cap(r.Deps) != len(r.Deps) || cap(r.Reads) != len(r.Reads) || cap(r.Writes) != len(r.Writes) {
			t.Fatalf("task %d: a carved list has spare capacity: %d/%d %d/%d %d/%d", i,
				len(r.Deps), cap(r.Deps), len(r.Reads), cap(r.Reads), len(r.Writes), cap(r.Writes))
		}
		_ = append(r.Deps, -7)
		_ = append(r.Reads, Version{Data: -7})
		_ = append(r.Writes, Version{Data: -7})
	}
	for i := range got {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("task %d changed under a neighbour's append: %+v, was %+v", i, got[i], want[i])
		}
	}
}

// stencilWindow is one window of the ledger's dataflow shape: rows of
// cells, cell i reading i-1, i, i+1 of one buffer and overwriting cell i of
// the other.
func stencilWindow(firstID TaskID, firstRow, rows, cells int) []TaskAccesses {
	buf := func(b, i int) DataID { return DataID(1 + b*cells + (i+cells)%cells) }
	batch := make([]TaskAccesses, 0, rows*cells)
	for t := firstRow; t < firstRow+rows; t++ {
		src, dst := t%2, (t+1)%2
		for i := 0; i < cells; i++ {
			batch = append(batch, TaskAccesses{Task: firstID + TaskID(len(batch)), Accesses: []Access{
				{Data: buf(src, i-1), Dir: In}, {Data: buf(src, i), Dir: In}, {Data: buf(src, i+1), Dir: In},
				{Data: buf(dst, i), Dir: Out},
			}})
		}
	}
	return batch
}

// TestRegistrationAllocBudget is the deterministic cost gate on the access
// processor: a 1024-task stencil window through RegisterBatch is a handful
// of arrays (results, versions, IDs), and a single Register is two.
func TestRegistrationAllocBudget(t *testing.T) {
	const cells, rows = 128, 8
	p := NewProcessor()
	p.RegisterBatch(stencilWindow(1, 0, 2, cells)) // every datum has its state and a writer
	window := stencilWindow(1+2*cells, 2, rows, cells)
	perWindow := testing.AllocsPerRun(20, func() { p.RegisterBatch(window) })
	t.Logf("RegisterBatch: %v allocations per %d-task window", perWindow, len(window))
	if perTask := perWindow / float64(len(window)); perTask > 0.05 {
		t.Fatalf("RegisterBatch: %.3f allocations per task (%v per %d-task window), budget 0.05", perTask, perWindow, len(window))
	}
	one := window[cells+1]
	if perCall := testing.AllocsPerRun(100, func() { p.Register(one.Task, one.Accesses) }); perCall > 2 {
		t.Fatalf("Register: %v allocations per call, budget 2", perCall)
	}
}
