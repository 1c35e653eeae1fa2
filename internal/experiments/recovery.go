// The live half of experiment E7: the simulator measures recovery cost in
// virtual time (experiments.go); this file drives the *same* engine fault
// path on the live runtime — real goroutines, wall-clock fault script —
// and verifies the workload's final values survive the crash. This is the
// recovery drill the paper runs on a real fog deployment (Sec. VI-B).
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine/faults"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/transfer"
)

// e7LiveRecoveryDrill runs the E7 failure drill on the live runtime: a
// width-wide, stages-deep pipeline of real Go tasks on a logical fog
// pool, submitted in one batch; mid-run a scripted fault scenario — a
// slow node, then a node crash — fires from a wall-clock timer, killing
// in-flight goroutine executions via placement-epoch invalidation; the
// engine re-runs lost work through its lineage recovery path and the
// drill checks every chain still computes the right value. The kill and
// re-execution counts depend on what the timer hit, so they are
// wall-clock cells.
func e7LiveRecoveryDrill(stages, width int) (*Table, error) {
	rt := core.New(core.Config{
		Pool: rig(nil, group{"fog%d", 4, resources.Description{
			Cores: 2, MemoryMB: 4000, SpeedFactor: 1, Class: resources.Fog,
		}}).Pool,
		Policy:    sched.MinLoad{},
		Locations: transfer.NewRegistry(),
		Net:       simnet.New(simnet.Link{BandwidthMBps: 100, Latency: time.Millisecond}),
	})
	defer rt.Shutdown()

	const stageWork = 10 * time.Millisecond
	err := rt.Register(core.TaskDef{Name: "fog.stage", Fn: func(ctx context.Context, args []any) ([]any, error) {
		// SlowSleep honors the drill's slow-node factor (fog2 runs its
		// stages 2× slower below) and returns early on a fault kill, in
		// which case recovery re-runs us.
		if err := core.SlowSleep(ctx, stageWork); err != nil {
			return nil, err
		}
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}})
	if err != nil {
		return nil, err
	}

	// Build the pipeline as one batch: chain w's stage s reads version s
	// of its handle chain and writes the next.
	heads := make([]*core.Handle, width)
	var reqs []core.TaskReq
	for w := 0; w < width; w++ {
		prev := rt.NewData()
		rt.SetInitial(prev, 0, core.WithSize(5e6))
		for s := 0; s < stages; s++ {
			next := rt.NewData()
			reqs = append(reqs, core.TaskReq{
				Name:   "fog.stage",
				Params: []core.Param{core.Read(prev), core.WriteSized(next, 5e6)},
			})
			prev = next
		}
		heads[w] = prev
	}

	start := time.Now()
	if _, err := rt.SubmitAll(reqs); err != nil {
		return nil, err
	}
	drill, err := faults.Run(faults.NewWallTimer(), rt, faults.Scenario{
		{At: 15 * time.Millisecond, Kind: faults.Slow, Node: "fog2", Factor: 2},
		{At: 25 * time.Millisecond, Kind: faults.Crash, Node: "fog1"},
	})
	if err != nil {
		return nil, err
	}
	drill.Wait()
	rt.Barrier()
	elapsed := time.Since(start)

	for _, o := range drill.Outcomes() {
		if o.Err != nil {
			return nil, fmt.Errorf("drill event %s %s: %w", o.Event.Kind, o.Event.Node, o.Err)
		}
	}
	result := "all values correct"
	for _, h := range heads {
		v, err := rt.WaitOn(h)
		if err != nil {
			return nil, err
		}
		if v != stages {
			result = "WRONG VALUES"
		}
	}
	t := newTable("pipeline", "wall time", "tasks killed", "re-executed", "result").
		wallClock("wall time", "tasks killed", "re-executed")
	t.add(text(fmt.Sprintf("%dx%d", stages, width)), dur(time.Millisecond, elapsed),
		num("%d", drill.Killed()), num("%d", rt.EngineStats().Reexecuted), text(result))
	return t, nil
}
