package deps

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// versionOf returns the version of d in list.
func versionOf(list []Version, d DataID) int {
	for _, v := range list {
		if v.Data == d {
			return v.Ver
		}
	}
	return -1
}

// TestProcessorHammer is the processor's concurrency contract under the
// race detector: eight goroutines register overlapping accesses through
// Register and RegisterBatch while a ninth reads CurrentVersion and Stats.
// Whatever order the lock admitted them in, the outcome must be one some
// serial order produces: every datum's version chain is gapless with one
// writer per version, every dependency is the writer or a group member of
// a version the task saw (and the mandatory ones are all there), the
// dependency graph is acyclic, and Stats counts exactly the edges handed
// out.
func TestProcessorHammer(t *testing.T) {
	const writers, perWriter, data = 8, 400, 6
	type registration struct {
		task TaskID
		acc  []Access
		res  Result
	}
	p := NewProcessor()
	regs := make([][]registration, writers)

	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last [data]int
		edges := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			for d := range last {
				v := p.CurrentVersion(DataID(d)).Ver
				if v < last[d] {
					t.Errorf("datum %d went back from version %d to %d", d, last[d], v)
					return
				}
				last[d] = v
			}
			n := p.Stats().Total()
			if n < edges {
				t.Errorf("edge count went back from %d to %d", edges, n)
				return
			}
			edges = n
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			next := TaskID(g * perWriter)
			mint := func() TaskAccesses {
				next++
				var acc []Access
				for _, d := range rng.Perm(data)[:1+rng.Intn(3)] { // distinct data: a task's accesses arrive merged
					acc = append(acc, Access{Data: DataID(d), Dir: Direction(1 + rng.Intn(5))})
				}
				return TaskAccesses{Task: next, Accesses: acc}
			}
			for len(regs[g]) < perWriter {
				if rng.Intn(2) == 0 {
					ta := mint()
					regs[g] = append(regs[g], registration{ta.Task, ta.Accesses, p.Register(ta.Task, ta.Accesses)})
					continue
				}
				batch := make([]TaskAccesses, min(1+rng.Intn(4), perWriter-len(regs[g])))
				for i := range batch {
					batch[i] = mint()
				}
				for i, res := range p.RegisterBatch(batch) {
					regs[g] = append(regs[g], registration{batch[i].Task, batch[i].Accesses, res})
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	reader.Wait()

	// Who wrote each version, and who joined its concurrent/commutative group.
	writer := make(map[Version]TaskID)
	members := make(map[Version][]TaskID)
	edges := 0
	for _, rs := range regs {
		for _, r := range rs {
			edges += len(r.res.Deps)
			for _, a := range r.acc {
				switch a.Dir {
				case Out, InOut:
					v := Version{Data: a.Data, Ver: versionOf(r.res.Writes, a.Data)}
					if w, dup := writer[v]; dup {
						t.Fatalf("%v written by both task %d and task %d", v, w, r.task)
					}
					writer[v] = r.task
				case Concurrent, Commutative:
					v := Version{Data: a.Data, Ver: versionOf(r.res.Reads, a.Data)}
					members[v] = append(members[v], r.task)
				}
			}
		}
	}
	written := 0
	for d := 0; d < data; d++ {
		cur := p.CurrentVersion(DataID(d)).Ver
		written += cur
		for v := 1; v <= cur; v++ {
			if _, ok := writer[Version{Data: DataID(d), Ver: v}]; !ok {
				t.Fatalf("datum %d is at version %d but nobody wrote version %d", d, cur, v)
			}
		}
	}
	if written != len(writer) {
		t.Fatalf("%d versions written, current versions sum to %d", len(writer), written)
	}
	if got := p.Stats().Total(); got != edges {
		t.Fatalf("Stats().Total() = %d, results carry %d edges", got, edges)
	}

	// Every edge is explained by a version the task saw; the edges a serial
	// run must produce are present.
	waits := make(map[TaskID][]TaskID, writers*perWriter)
	for _, rs := range regs {
		for _, r := range rs {
			if !slices.IsSorted(r.res.Deps) || len(slices.Compact(slices.Clone(r.res.Deps))) != len(r.res.Deps) {
				t.Fatalf("task %d: deps %v not sorted and duplicate-free", r.task, r.res.Deps)
			}
			waits[r.task] = r.res.Deps
			allowed := make(map[TaskID]bool)
			var required []TaskID
			for _, a := range r.acc {
				saw := Version{Data: a.Data, Ver: versionOf(r.res.Reads, a.Data)}
				if a.Dir == Out {
					saw.Ver = versionOf(r.res.Writes, a.Data) - 1
				}
				if w, ok := writer[saw]; ok && a.Dir != Out { // renaming: a plain write does not wait for the last one
					allowed[w] = true
					required = append(required, w)
				}
				switch a.Dir {
				case In: // only the members that joined before it
					for _, m := range members[saw] {
						allowed[m] = true
					}
				case Out, InOut: // a superseding write closes the group: all of it
					for _, m := range members[saw] {
						allowed[m] = true
						required = append(required, m)
					}
				}
			}
			for _, d := range r.res.Deps {
				if !allowed[d] {
					t.Fatalf("task %d (%v) waits for task %d, which neither wrote nor joined a version it saw", r.task, r.acc, d)
				}
			}
			for _, d := range required {
				if !slices.Contains(r.res.Deps, d) {
					t.Fatalf("task %d (%v) does not wait for task %d, deps %v", r.task, r.acc, d, r.res.Deps)
				}
			}
		}
	}

	// Some serial order explains all of it: edges only point backwards in
	// it, so releasing tasks as their dependencies finish reaches everyone.
	dependents := make(map[TaskID][]TaskID, len(waits))
	var ready []TaskID
	for task, ds := range waits {
		for _, d := range ds {
			dependents[d] = append(dependents[d], task)
		}
		if len(ds) == 0 {
			ready = append(ready, task)
		}
	}
	met := make(map[TaskID]int, len(waits))
	ordered := 0
	for ; len(ready) > 0; ordered++ {
		task := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, dep := range dependents[task] {
			if met[dep]++; met[dep] == len(waits[dep]) {
				ready = append(ready, dep)
			}
		}
	}
	if ordered != len(waits) {
		t.Fatalf("dependency graph has a cycle: only %d of %d tasks can be ordered", ordered, len(waits))
	}
}
