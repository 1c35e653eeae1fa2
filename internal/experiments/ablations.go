package experiments

import (
	"time"

	"repro/internal/mlpredict"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// Ablations A1 and A2 of the README's Experiments table. They are not
// paper experiments; they justify the implementation choices.

// a1Renaming runs the producer-consumer loop (overwrite + long readers)
// with and without version renaming in the access processor, mirroring
// the COMPSs renaming mechanism.
func a1Renaming(iters, readers int) (*Table, error) {
	specs := workloads.ProducerConsumerLoop(iters, readers, 60*time.Second)
	t := newTable("mode", "RAW", "WAR", "WAW", "makespan", "edges")
	for _, disable := range []bool{false, true} {
		cfg := rig(sched.MinLoad{}, mareNostrum(4))
		cfg.DisableRenaming = disable
		res, err := mustRun(cfg, specs)
		if err != nil {
			return nil, err
		}
		mode := "renaming on (COMPSs)"
		if disable {
			mode = "renaming off"
		}
		e := res.DepEdges
		t.add(text(mode), num("%d", e.RAW), num("%d", e.WAR), num("%d", e.WAW),
			dur(time.Second, res.Makespan), num("%d", e.Total()))
	}
	return t, nil
}

// noPriority hides a policy's Prioritizer, isolating the effect of ready-
// queue ordering from node selection.
type noPriority struct {
	inner sched.Policy
}

var _ sched.Policy = noPriority{}

// Name implements sched.Policy.
func (p noPriority) Name() string { return p.inner.Name() + "-noprio" }

// Choose implements sched.Policy.
func (p noPriority) Choose(t *sched.TaskView, c resources.Candidates, ctx *sched.Context) *resources.Node {
	return p.inner.Choose(t, c, ctx)
}

// a2Priority runs the heterogeneous mix with the full ML policy and with
// its ordering stripped, on the makespan of the third execution: the
// first two train the predictor.
func a2Priority(tasks int) (*Table, error) {
	t := newTable("policy", "makespan (3rd execution)")
	for _, policy := range []sched.Policy{sched.ML{}, noPriority{inner: sched.ML{}}} {
		pred := mlpredict.NewPredictor(10 * time.Second)
		var last time.Duration
		for r := 0; r < 3; r++ {
			res, err := mustRun(mlRig(policy, pred), workloads.HeterogeneousMix(tasks, int64(200+r)))
			if err != nil {
				return nil, err
			}
			last = res.Makespan
		}
		t.add(text(policy.Name()), dur(time.Second, last))
	}
	return t, nil
}
