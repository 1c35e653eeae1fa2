// Weather: a miniature NMMB-Monarch chemical-weather workflow (paper
// Sec. VI-A): per forecast cycle, initialisation scripts run as parallel
// tasks (the PyCOMPSs improvement), a distributed-memory simulation runs as
// an MPI-style multi-rank task, and post-processing reduces the output.
// Cycles chain through the model state. Every cycle's rank-parallel field
// is checked cell for cell against the same stencil run serially; a
// mismatch (a broken halo exchange) exits non-zero.
//
//	go run ./examples/weather
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/compss"
)

const (
	cycles       = 3
	initScripts  = 6
	mpiRanks     = 4
	cellsPerRank = 64
	stencilSteps = 200
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "weather:", err)
		os.Exit(1)
	}
}

// modelState is the restart file chained across forecast cycles.
type modelState struct {
	Cycle int
	Field []float64 // the prognostic field (e.g. dust concentration)
}

func run() error {
	c := compss.New(compss.WithNodes(
		compss.NodeSpec{Name: "hpc1", Cores: 8},
		compss.NodeSpec{Name: "hpc2", Cores: 8},
	))
	defer c.Shutdown()
	if err := register(c); err != nil {
		return err
	}

	start := time.Now()
	state := c.NewObjectWith(modelState{Field: initialField()})
	serial := initialField()
	for cycle := 0; cycle < cycles; cycle++ {
		// Step 2: initialisation scripts, task-parallel (the paper's
		// speedup came from parallelising exactly this stage).
		inits := make([]*compss.Object, initScripts)
		for i := range inits {
			inits[i] = c.NewObject()
			if _, err := c.Call("initScript", compss.In(cycle), compss.In(i), compss.Write(inits[i])); err != nil {
				return err
			}
		}

		// Step 3: the MPI simulation consumes the init products and
		// advances the model state.
		params := []compss.Param{compss.Update(state)}
		for _, in := range inits {
			params = append(params, compss.Read(in))
		}
		if _, err := c.Call("mpiSimulate", params...); err != nil {
			return err
		}

		// Steps 4–5: post-process and archive.
		post := c.NewObject()
		if _, err := c.Call("postProcess", compss.Read(state), compss.Write(post)); err != nil {
			return err
		}
		report, err := c.WaitOn(post)
		if err != nil {
			return err
		}
		fmt.Printf("cycle %d: %v\n", cycle, report)

		// The rank-parallel field must equal the serial stencil exactly:
		// every cell sees the same operands in the same order.
		for s := 0; s < stencilSteps; s++ {
			serial = stencil(serial, 0, 0)
		}
		v, err := c.WaitOn(state)
		if err != nil {
			return err
		}
		if err := sameField(v.(modelState).Field, serial); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	fmt.Printf("halo exchange: %d cycles match the serial stencil cell for cell\n", cycles)
	fmt.Printf("forecast complete: %d tasks in %v\n",
		c.TasksSubmitted(), time.Since(start).Round(time.Millisecond))
	return nil
}

func initialField() []float64 {
	f := make([]float64, mpiRanks*cellsPerRank)
	f[0] = 1000 // a dust plume at the domain edge
	return f
}

// stencil advances a segment of the field by one diffusion step; left and
// right are the cells just outside it (0 past the domain edge).
func stencil(seg []float64, left, right float64) []float64 {
	upd := make([]float64, len(seg))
	for i := range seg {
		l, r := left, right
		if i > 0 {
			l = seg[i-1]
		}
		if i < len(seg)-1 {
			r = seg[i+1]
		}
		upd[i] = seg[i] + 0.2*(l-2*seg[i]+r)
	}
	return upd
}

func sameField(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("rank-parallel field has %d cells, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("cell %d: rank-parallel %v, serial %v", i, got[i], want[i])
		}
	}
	return nil
}

// rank is one process of a message-passing substrate in the style of MPI,
// the stand-in for the Fortran/MPI NMMB core: ranks are goroutines, and
// each ordered rank pair has its own one-slot channel, so both sides of a
// paired exchange can send before either receives (MPI's eager protocol).
type rank struct {
	id, size int
	chans    [][]chan []float64 // chans[src][dst]
}

// runRanks runs fn on size ranks and waits for all of them.
func runRanks(size int, fn func(r *rank)) {
	chans := make([][]chan []float64, size)
	for src := range chans {
		chans[src] = make([]chan []float64, size)
		for dst := range chans[src] {
			chans[src][dst] = make(chan []float64, 1)
		}
	}
	var wg sync.WaitGroup
	for id := 0; id < size; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			fn(&rank{id: id, size: size, chans: chans})
		}(id)
	}
	wg.Wait()
}

// sendRecv hands v to partner and returns the value partner handed back.
func (r *rank) sendRecv(partner int, v float64) float64 {
	r.chans[r.id][partner] <- []float64{v}
	return (<-r.chans[partner][r.id])[0]
}

// gather collects every rank's chunk at rank 0 in rank order; the other
// ranks get nil.
func (r *rank) gather(chunk []float64) []float64 {
	if r.id != 0 {
		r.chans[r.id][0] <- chunk
		return nil
	}
	out := append([]float64(nil), chunk...)
	for src := 1; src < r.size; src++ {
		out = append(out, <-r.chans[src][0]...)
	}
	return out
}

func register(c *compss.COMPSs) error {
	if err := c.RegisterTask("initScript", func(_ context.Context, args []any) ([]any, error) {
		cycle, _ := args[0].(int)
		idx, _ := args[1].(int)
		// A "script" producing boundary conditions.
		return []any{fmt.Sprintf("vars-c%d-s%d", cycle, idx)}, nil
	}); err != nil {
		return err
	}

	if err := c.RegisterTask("mpiSimulate", func(_ context.Context, args []any) ([]any, error) {
		st, ok := args[0].(modelState)
		if !ok {
			return nil, errors.New("mpiSimulate wants modelState")
		}
		// The multi-node stage: a halo-exchange diffusion stencil, one
		// block of cells per rank.
		next := make([]float64, len(st.Field))
		runRanks(mpiRanks, func(r *rank) {
			lo := r.id * cellsPerRank
			local := st.Field[lo : lo+cellsPerRank]
			for s := 0; s < stencilSteps; s++ {
				left, right := 0.0, 0.0
				if r.id > 0 {
					left = r.sendRecv(r.id-1, local[0])
				}
				if r.id < r.size-1 {
					right = r.sendRecv(r.id+1, local[len(local)-1])
				}
				local = stencil(local, left, right)
			}
			if all := r.gather(local); r.id == 0 {
				copy(next, all)
			}
		})
		return []any{modelState{Cycle: st.Cycle + 1, Field: next}}, nil
	}, compss.Constraints{Cores: 4}); err != nil {
		return err
	}

	return c.RegisterTask("postProcess", func(_ context.Context, args []any) ([]any, error) {
		st, ok := args[0].(modelState)
		if !ok {
			return nil, errors.New("postProcess wants modelState")
		}
		total, peak := 0.0, 0.0
		for _, v := range st.Field {
			total += v
			if v > peak {
				peak = v
			}
		}
		return []any{fmt.Sprintf("cycle=%d total_dust=%.1f peak=%.2f", st.Cycle, total, peak)}, nil
	})
}
