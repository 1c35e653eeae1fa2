package compss

import (
	"fmt"
)

// The patterns level of the paper's abstraction stack (Sec. V: "an
// intermediate programming environment, where developers can express in a
// simple way parallel structures (embarrassingly parallel, fork, join,
// ...), data reductions"). Each pattern expands into plain task calls, so
// the runtime below sees an ordinary dependency graph.

// Map invokes a unary task once per input, returning one output object per
// input. The task must accept (In value, Write out) — the embarrassingly
// parallel pattern.
func (c *COMPSs) Map(task string, inputs []any) ([]*Object, error) {
	outs := make([]*Object, len(inputs))
	for i, in := range inputs {
		outs[i] = c.NewObject()
		if _, err := c.Call(task, In(in), Write(outs[i])); err != nil {
			return nil, fmt.Errorf("map %s[%d]: %w", task, i, err)
		}
	}
	return outs, nil
}

// ReduceTree folds the items pairwise with a binary task (Read a, Read b,
// Write out) in a balanced tree, so the reduction completes in ⌈log₂ n⌉
// dependent steps instead of the n-long chain a naive fold produces. With
// one item it is returned unchanged; with none it is an error.
func (c *COMPSs) ReduceTree(task string, items []*Object) (*Object, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("compss: ReduceTree(%s) with no items", task)
	}
	level := append([]*Object(nil), items...)
	for len(level) > 1 {
		var next []*Object
		for i := 0; i+1 < len(level); i += 2 {
			out := c.NewObject()
			if _, err := c.Call(task, Read(level[i]), Read(level[i+1]), Write(out)); err != nil {
				return nil, fmt.Errorf("reduce %s: %w", task, err)
			}
			next = append(next, out)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0], nil
}

// MapReduceTree composes Map and ReduceTree: apply mapTask to every input,
// then fold the results with reduceTask.
func (c *COMPSs) MapReduceTree(mapTask, reduceTask string, inputs []any) (*Object, error) {
	mapped, err := c.Map(mapTask, inputs)
	if err != nil {
		return nil, err
	}
	return c.ReduceTree(reduceTask, mapped)
}

// ForkJoin runs the given calls concurrently (fork) and waits for all of
// them (join), returning the first error. Each call is (task, params).
type ForkCall struct {
	Task   string
	Params []Param
}

// ForkJoin executes the calls and blocks until all complete.
func (c *COMPSs) ForkJoin(calls []ForkCall) error {
	g := c.NewGroup()
	for i, call := range calls {
		if _, err := g.Call(call.Task, call.Params...); err != nil {
			return fmt.Errorf("fork[%d] %s: %w", i, call.Task, err)
		}
	}
	return g.WaitAll()
}
