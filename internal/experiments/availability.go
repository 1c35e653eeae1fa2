// E15 — partition-aware data availability. A short network partition
// strands a produced datum on the wrong side of a cut while the tasks
// that consume it are pinned to the other side. The pre-availability
// engine launched them anyway ("missing, run anyway"); E15 measures the
// three engine.Availability policies against each other on the same
// scripted cut/heal, and then drills the placement-aware checkpoint
// restore: a snapshot taken on one pool is restored onto a *shrunk* pool,
// and every version whose compute replicas vanished with the removed
// node must be re-staged from the persist tier — zero snapshotted tasks
// recompute.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/faults"
	"repro/internal/infra"
	"repro/internal/resources"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// e15PartitionRecovery runs the PartitionPipeline workload under a
// heal-bounded cut (the producer tier is cut away before the consumers
// become visible and healed at healAt) once per availability policy, on
// one HPC producer node ahead of a consumNodes-VM consumer fleet.
// "ran-missing" counts launches that proceeded with unreachable inputs
// (the silent failures defer and recompute must drive to zero);
// "deferred" counts placements parked for unavailable inputs;
// "re-executed" counts lineage re-runs of completed tasks (recompute pays
// exactly one, for the stranded producer); "transfers" counts planned
// input fetches.
func e15PartitionRecovery(consumers, consumNodes int, healAt time.Duration) (*Table, error) {
	t := newTable("policy", "makespan", "ran-missing", "deferred", "re-executed", "transfers")
	for _, policy := range []engine.Availability{
		engine.AvailRunAnyway, engine.AvailDefer, engine.AvailRecompute,
	} {
		// The consumer VMs sort after src0 so MinLoad's name tie-break
		// lands the unpinned producer on the HPC node — the placement the
		// scripted cut is aimed at.
		cfg := rig(sched.MinLoad{},
			group{"src%d", 1, resources.Description{Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC}},
			group{"vm%03d", consumNodes, resources.CloudVM})
		cfg.Availability = policy
		cfg.Faults = faults.Scenario{
			{At: 5 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"},
			{At: healAt, Kind: faults.HealLink, Node: "hpc", Peer: "cloud"},
		}
		sim, err := infra.New(cfg, workloads.PartitionPipeline(consumers, 2*time.Second, 5*time.Second, 50e6, 10*time.Second))
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("E15 %s: %w", policy, err)
		}
		st := sim.EngineStats()
		t.add(text(policy.String()), dur(time.Second, res.Makespan), num("%d", st.RanMissing),
			num("%d", st.Deferred), num("%d", st.Reexecuted), num("%d", st.Transfers))
	}
	return t, nil
}

// e15ShrunkPoolRestore checkpoints a map-reduce on a three-node pool with
// a dataClay-style persist tier, halts the engine after the map phase,
// then restores onto a pool missing one node. Map outputs whose only
// compute replica lived on the removed node are re-staged from the
// persist tier ahead of demand; no snapshotted task recomputes.
func e15ShrunkPoolRestore(nMap, nReduce int) (*Table, error) {
	const mapDur = 10 * time.Second
	specs := workloads.MapReduce(nMap, nReduce, mapDur, 5*time.Second, 20e6)
	newCfg := func(nodes int) infra.Config {
		cfg := rig(sched.MinLoad{}, group{"n%d", nodes, resources.Description{
			Cores: 2, MemoryMB: 16_000, SpeedFactor: 1, Class: resources.Cloud,
		}})
		cfg.PersistNode = "persist"
		cfg.Net.SetZone("persist", resources.Cloud.String())
		return cfg
	}

	// Incarnation 1: three nodes, persist tier, checkpoint every
	// completion, process dies just after the map phase drains (6 map
	// slots → ceil(nMap/6) waves of mapDur). Incarnation 2: n2 is gone;
	// restore must re-stage its replicas from the persist tier instead of
	// re-running their producers.
	first := newCfg(3)
	first.HaltAt = time.Duration((nMap+5)/6)*mapDur + 2*time.Second
	d, err := crashRestore("E15 restore", first, newCfg(2), 1, specs)
	if err != nil {
		return nil, err
	}
	t := newTable("tasks", "snapshotted", "removed node", "restored", "re-staged", "recomputed", "resumed makespan")
	t.add(num("%d", len(specs)), num("%d", d.snapshotted), text("n2"),
		num("%d", d.resumed.TasksRestored), num("%d", d.resumed.ReplicasRestaged),
		num("%d", d.startedAgain), dur(time.Second, d.resumed.Makespan))
	return t, nil
}
