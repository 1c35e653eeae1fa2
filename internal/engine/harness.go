package engine

import "repro/internal/deps"

// AddBatch is Add with no holds, kept for the frozen benchmark harness
// (bench/) alone: everything else registers through Add. It goes when that
// harness next changes.
func (e *Engine) AddBatch(ts []*Task, producers [][]deps.TaskID) (bool, error) {
	return e.Add(ts, producers, nil)
}
