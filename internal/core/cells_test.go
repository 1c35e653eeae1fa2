package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/deps"
	"repro/internal/resources"
)

// A handle another runtime made must be refused, not read as this
// runtime's datum of the same number: it used to alias it silently, so
// b.WaitOn(ha) returned b's own datum and b.Submit("inc", Update(ha))
// incremented it.
func TestForeignHandleRefused(t *testing.T) {
	a, b := newRT(t, Config{}), newRT(t, Config{})
	registerArith(t, a)
	registerArith(t, b)
	ha, hb := a.NewData(), b.NewData()
	a.SetInitial(ha, 5)
	b.SetInitial(hb, 7)

	if v, err := b.WaitOn(ha); !errors.Is(err, ErrForeignHandle) {
		t.Fatalf("b.WaitOn(ha) = %v, %v; want ErrForeignHandle", v, err)
	}
	if _, err := b.Submit("inc", Update(ha)); !errors.Is(err, ErrForeignHandle) {
		t.Fatalf("b.Submit with a's handle: %v, want ErrForeignHandle", err)
	}
	batch := []TaskReq{{Name: "inc", Params: []Param{Update(hb)}}, {Name: "inc", Params: []Param{Update(ha)}}}
	if _, err := b.SubmitAll(batch); !errors.Is(err, ErrForeignHandle) {
		t.Fatalf("b.SubmitAll with a's handle: %v, want ErrForeignHandle", err)
	}
	for name, call := range map[string]func(){
		"SetInitial":     func() { b.SetInitial(ha, 1) },
		"CurrentVersion": func() { b.CurrentVersion(ha) },
	} {
		func() {
			defer func() {
				if r := recover(); r != ErrForeignHandle {
					t.Errorf("b.%s(ha) recovered %v, want a panic with ErrForeignHandle", name, r)
				}
			}()
			call()
		}()
	}

	// Nothing was registered on b, and a's datum is untouched.
	if n := b.Stats().Submitted; n != 0 {
		t.Fatalf("b registered %d tasks, want 0", n)
	}
	if v, err := b.WaitOn(hb); err != nil || v != 7 {
		t.Fatalf("b's datum = %v (err %v), want 7", v, err)
	}
	if v, err := a.WaitOn(ha); err != nil || v != 5 {
		t.Fatalf("a's datum = %v (err %v), want 5", v, err)
	}
}

// A fault-killed execution whose body keeps running must keep its own
// arguments while the re-execution materialises into a fresh array: the
// first execution's array is carved at submission, a re-execution's is
// not. Between the two the version it reads is staged in again, so a
// shared array would hand the killed body the new value (and, under
// -race, the write would race its reads).
func TestKilledExecutionKeepsItsArguments(t *testing.T) {
	rt := newRT(t, Config{Pool: poolOf(1)})
	var runs atomic.Int32
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	killedSaw := make(chan any, 1)
	if err := rt.Register(TaskDef{Name: "hold", Fn: func(ctx context.Context, args []any) ([]any, error) {
		if runs.Add(1) > 1 {
			return []any{args[0]}, nil // the re-execution
		}
		started <- struct{}{}
		<-ctx.Done() // killed: keep reading while the re-execution runs
		var last any
		for done := false; !done; {
			select {
			case <-release:
				done = true
			default:
			}
			last = args[0]
		}
		killedSaw <- last
		return []any{last}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	h, out := rt.NewData(), rt.NewData()
	rt.SetInitial(h, 1)
	f, err := rt.Submit("hold", Read(h), Write(out))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_ = rt.Pool().Add(resources.NewNode("w1", resources.Description{Cores: 1, MemoryMB: 4000, SpeedFactor: 1}))
	rt.SetInitial(h, 2)
	if _, err := rt.FailNode("w0"); err != nil {
		t.Fatal(err)
	}
	vals, err := f.Wait()
	if err != nil || len(vals) != 1 || vals[0] != 2 {
		t.Fatalf("re-execution returned %v (err %v), want [2]", vals, err)
	}
	close(release)
	if got := <-killedSaw; got != 1 {
		t.Fatalf("the killed execution's argument became %v, want its own 1", got)
	}
}

// opSpec tells the "op" body what each handle parameter does: args[0] is
// the spec, args[1+j] the j-th handle parameter's value. In parameters
// add to the task's sum, which goes to the receipt (the last parameter,
// an Out); Out writes k, InOut and Commutative add k, Concurrent writes
// back what it read.
type opSpec struct {
	dirs []deps.Direction
	k    []int
}

func opBody(_ context.Context, args []any) ([]any, error) {
	spec := args[0].(opSpec)
	sum, outs := 0, make([]any, 0, len(spec.dirs))
	for j, d := range spec.dirs {
		v, _ := args[1+j].(int)
		switch d {
		case deps.In:
			sum += v
		case deps.Out:
			outs = append(outs, spec.k[j])
		case deps.InOut, deps.Commutative:
			outs = append(outs, v+spec.k[j])
		case deps.Concurrent:
			outs = append(outs, v)
		}
	}
	return append(outs, sum), nil
}

// cellModel is the serial model of a random live workflow: every datum's
// value, the writer last registered for every version, and what the
// generator exercised (ED-3: a zero fails the test).
type cellModel struct {
	handles []*Handle
	value   []int            // by handle index
	group   []deps.Direction // the open group's direction per handle (0: none)
	read    []bool           // an In read the current version
	writer  map[deps.Version]*rtTask
	tasks   []*rtTask
	counts  map[string]int
}

// checkValueCells holds the value cells to the registrations that made
// them: every handle's current cell is its CurrentVersion, every task's
// read and write cells carry its InputKeys and OutputKeys in order, no
// two versions share a cell and no version has two, and every written
// cell names its last-registered writer.
func checkValueCells(t *testing.T, rt *Runtime, m *cellModel) {
	t.Helper()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	byKey := map[deps.Version]*cell{}
	for p, page := range rt.pages {
		n := cellPage
		if p == len(rt.pages)-1 {
			n = rt.used
		}
		for i := range page[:n] {
			c := &page[i]
			if byKey[c.key] != nil {
				t.Fatalf("version %v has two cells", c.key)
			}
			byKey[c.key] = c
			if w := m.writer[c.key]; c.prod != w {
				t.Fatalf("cell %v names producer %v, want the last-registered writer %v", c.key, taskID(c.prod), taskID(w))
			}
		}
	}
	for _, h := range m.handles {
		if cur := rt.proc.CurrentVersion(h.id); h.cur.key != cur || byKey[cur] != h.cur {
			t.Fatalf("datum %d: current cell %v, CurrentVersion %v", h.id, h.cur.key, cur)
		}
		if h.init.key != (deps.Version{Data: h.id}) || byKey[h.init.key] != h.init {
			t.Fatalf("datum %d: version-0 cell %v", h.id, h.init.key)
		}
	}
	for _, tk := range m.tasks {
		for side, pair := range [2]struct {
			cells []*cell
			keys  []deps.Version
		}{{tk.reads, tk.et.InputKeys}, {tk.writes, tk.et.OutputKeys}} {
			if len(pair.cells) != len(pair.keys) {
				t.Fatalf("task %d side %d: %d cells for %d versions", tk.et.ID, side, len(pair.cells), len(pair.keys))
			}
			for i, c := range pair.cells {
				if c.key != pair.keys[i] || byKey[c.key] != c {
					t.Fatalf("task %d side %d: cell %d is %v, want %v's own", tk.et.ID, side, i, c.key, pair.keys[i])
				}
			}
		}
	}
}

func taskID(t *rtTask) int64 {
	if t == nil {
		return 0
	}
	return t.et.ID
}

// TestValueCellsFollowRegistrations drives a seeded random live workflow —
// all five directions, single and batch submissions, stage-ins before and
// after writes, WaitOn, several cell pages — and runs checkValueCells
// after every step; every WaitOn must equal the serial model.
func TestValueCellsFollowRegistrations(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runCellWorkflow(t, seed) })
	}
}

func runCellWorkflow(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// A registry keeps the engine's key lists on finished tasks.
	rt := newRT(t, Config{Pool: poolOf(4), Locations: newRegistry()})
	if err := rt.Register(TaskDef{Name: "op", Fn: opBody}); err != nil {
		t.Fatal(err)
	}
	m := &cellModel{writer: map[deps.Version]*rtTask{}, counts: map[string]int{}}
	newData := func() int {
		m.handles = append(m.handles, rt.NewData())
		m.value = append(m.value, 0)
		m.group = append(m.group, 0)
		m.read = append(m.read, false)
		return len(m.handles) - 1
	}
	for i := 0; i < 8; i++ {
		rt.SetInitial(m.handles[newData()], 0)
	}
	dirs := []deps.Direction{deps.In, deps.Out, deps.InOut, deps.Commutative, deps.Concurrent}
	// draw builds one invocation over distinct data among the first n and
	// applies it to the model.
	draw := func(n int) TaskReq {
		var spec opSpec
		params := []Param{{}} // spec, filled in below
		picked := map[int]bool{}
		sum := 0
		for want := 1 + rng.Intn(3); len(spec.dirs) < want; {
			d := rng.Intn(n)
			if picked[d] {
				continue
			}
			picked[d] = true
			dir := dirs[rng.Intn(len(dirs))]
			if dir == deps.Commutative || dir == deps.Concurrent {
				switch {
				case m.read[d]:
					// A group member updates the version it shares in place,
					// so it must not join one an In reader may not have read yet.
					dir = deps.InOut
				case m.group[d] != 0:
					dir = m.group[d] // a Concurrent write-back would race a merge
				}
			}
			k := 1 + rng.Intn(9)
			spec.dirs, spec.k = append(spec.dirs, dir), append(spec.k, k)
			params = append(params, Param{Handle: m.handles[d], Dir: dir})
			m.counts[dir.String()]++
			switch dir {
			case deps.In:
				sum += m.value[d]
				m.read[d] = true
			case deps.Out:
				m.value[d], m.group[d], m.read[d] = k, 0, false
			case deps.InOut:
				m.value[d], m.group[d], m.read[d] = m.value[d]+k, 0, false
			case deps.Commutative:
				m.value[d], m.group[d] = m.value[d]+k, dir
			case deps.Concurrent:
				m.group[d] = dir
			}
		}
		receipt := newData()
		m.value[receipt] = sum
		params[0] = In(spec)
		params = append(params, Write(m.handles[receipt]))
		return TaskReq{Name: "op", Params: params}
	}
	// bind records a registered invocation: it writes its receipt last,
	// and no invocation of its call touches the receipt again, so the
	// receipt's current cell names its task.
	bind := func(req TaskReq) {
		rt.mu.Lock()
		tk := req.Params[len(req.Params)-1].Handle.cur.prod
		rt.mu.Unlock()
		m.tasks = append(m.tasks, tk)
		for _, k := range tk.et.OutputKeys {
			m.writer[k] = tk
		}
	}
	pagesBefore := 0
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(20); {
		case r < 8:
			req := draw(len(m.handles))
			if _, err := rt.Submit(req.Name, req.Params...); err != nil {
				t.Fatal(err)
			}
			bind(req)
			m.counts["Submit"]++
		case r < 14:
			reqs, n := make([]TaskReq, 1+rng.Intn(6)), len(m.handles)
			for i := range reqs {
				reqs[i] = draw(n)
			}
			if _, err := rt.SubmitAll(reqs); err != nil {
				t.Fatal(err)
			}
			for _, req := range reqs {
				bind(req)
			}
			m.counts["SubmitAll"]++
		case r < 17:
			d := rng.Intn(len(m.handles))
			v, err := rt.WaitOn(m.handles[d])
			if err != nil || v != m.value[d] {
				t.Fatalf("step %d: WaitOn(datum %d) = %v (err %v), serial model %d", step, m.handles[d].id, v, err, m.value[d])
			}
			m.counts["WaitOn"]++
		case r < 18:
			d := newData() // staged in before any write
			m.value[d] = rng.Intn(100)
			rt.SetInitial(m.handles[d], m.value[d])
			m.counts["SetInitial before writes"]++
		default:
			// After writes, a stage-in changes version 0 only. Barrier first:
			// no registered task may still be about to read version 0.
			rt.Barrier()
			d := rng.Intn(len(m.handles))
			if rt.CurrentVersion(m.handles[d]).Ver == 0 {
				continue
			}
			rt.SetInitial(m.handles[d], -1)
			rt.mu.Lock()
			if h := m.handles[d]; h.init.val != -1 || h.cur == h.init {
				t.Fatalf("step %d: SetInitial after writes left version 0 = %v", step, h.init.val)
			}
			rt.mu.Unlock()
			m.counts["SetInitial after writes"]++
		}
		checkValueCells(t, rt, m)
		rt.mu.Lock()
		if len(rt.pages) > pagesBefore {
			m.counts["page crossing"] += len(rt.pages) - pagesBefore
			pagesBefore = len(rt.pages)
		}
		rt.mu.Unlock()
	}
	rt.Barrier()
	for d, h := range m.handles {
		if v, err := rt.WaitOn(h); err != nil || v != m.value[d] {
			t.Fatalf("final WaitOn(datum %d) = %v (err %v), serial model %d", h.id, v, err, m.value[d])
		}
	}
	checkValueCells(t, rt, m)
	rt.mu.Lock()
	for _, page := range rt.pages {
		for i := range page {
			if g := page[i].grp; g != nil && len(g.members) > 1 {
				m.counts["group"]++
			}
		}
	}
	rt.mu.Unlock()
	for _, what := range []string{"IN", "OUT", "INOUT", "COMMUTATIVE", "CONCURRENT", "Submit", "SubmitAll",
		"WaitOn", "SetInitial before writes", "SetInitial after writes", "group"} {
		if m.counts[what] == 0 {
			t.Errorf("the workflow exercised no %s", what)
		}
	}
	if m.counts["page crossing"] < 3 {
		t.Errorf("the workflow used %d cell pages, want more than two", m.counts["page crossing"])
	}
	t.Logf("exercised %v", m.counts)
}

// TestValueCellHammer registers, waits on and stages in shared handles
// from several goroutines at once while the cell pages grow; under -race
// every cell access must be ordered by rt.mu, and every increment lands.
func TestValueCellHammer(t *testing.T) {
	rt := newRT(t, Config{Pool: poolOf(4)})
	registerArith(t, rt)
	const workers, rounds, shared = 4, 60, 3
	hs := make([]*Handle, shared)
	for i := range hs {
		hs[i] = rt.NewData()
		rt.SetInitial(hs[i], 0)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := hs[(w+r)%shared]
				own := rt.NewData()
				rt.SetInitial(own, r)
				rt.SetInitial(h, 0) // version 0, to the value it has: a pending first reader sees no change
				reqs := []TaskReq{
					{Name: "inc", Params: []Param{Update(h)}},
					{Name: "inc", Params: []Param{Update(own)}},
					{Name: "add", Params: []Param{Read(own), Read(h), Write(rt.NewData())}},
				}
				if _, err := rt.SubmitAll(reqs); err != nil {
					errs <- err
					return
				}
				if _, err := rt.Submit("inc", Update(h)); err != nil {
					errs <- err
					return
				}
				if v, err := rt.WaitOn(own); err != nil || v != r+1 {
					errs <- fmt.Errorf("worker %d round %d: own datum %v (err %v), want %d", w, r, v, err, r+1)
					return
				}
				if _, err := rt.WaitOn(h); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, h := range hs {
		v, err := rt.WaitOn(h)
		if err != nil {
			t.Fatal(err)
		}
		total += v.(int)
	}
	if want := 2 * workers * rounds; total != want {
		t.Fatalf("shared data sum to %d, want %d increments", total, want)
	}
	rt.mu.Lock()
	pages := len(rt.pages)
	rt.mu.Unlock()
	if pages < 3 {
		t.Fatalf("the hammer used %d cell pages, want growth past two", pages)
	}
}
