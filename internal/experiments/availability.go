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
	"repro/internal/simnet"
	"repro/internal/workloads"
)

// E15Result is one availability-policy run of the partition drill.
type E15Result struct {
	// Policy is the availability mode under test.
	Policy engine.Availability
	// Makespan is the run's virtual completion time.
	Makespan time.Duration
	// RanMissing counts launches that proceeded with unreachable inputs
	// (the silent failures defer/recompute must drive to zero).
	RanMissing int
	// Deferred counts placements parked in the availability wait set.
	Deferred int
	// Reexecuted counts lineage re-runs of completed tasks (recompute
	// pays exactly one for the stranded producer).
	Reexecuted int
	// Transfers counts planned input fetches.
	Transfers int
}

// e15Pool builds the drill rig: one HPC producer node ahead of a cloud
// consumer fleet, on the continuum network.
func e15Pool(consumNodes int) (*resources.Pool, *simnet.Network) {
	pool := resources.NewPool()
	_ = pool.Add(resources.NewNode("src0", resources.Description{
		Cores: 4, MemoryMB: 32_000, SpeedFactor: 1, Class: resources.HPC,
	}))
	// The consumer VMs sort after src0 so MinLoad's name tie-break lands
	// the unpinned producer on the HPC node — the placement the scripted
	// cut is aimed at.
	for i := 0; i < consumNodes; i++ {
		_ = pool.Add(resources.NewNode(fmt.Sprintf("vm%03d", i), resources.CloudVM))
	}
	net := simnet.Continuum()
	for _, n := range pool.Nodes() {
		net.SetZone(n.Name(), n.Desc().Class.String())
	}
	return pool, net
}

// E15PartitionRecovery runs the PartitionPipeline workload under a
// heal-bounded cut (the producer tier is cut away before the consumers
// become visible and healed at healAt) once per availability policy.
func E15PartitionRecovery(consumers, consumNodes int, healAt time.Duration) ([]E15Result, error) {
	var out []E15Result
	for _, policy := range []engine.Availability{
		engine.AvailRunAnyway, engine.AvailDefer, engine.AvailRecompute,
	} {
		pool, net := e15Pool(consumNodes)
		sim, err := infra.New(infra.Config{
			Pool: pool, Net: net, Policy: sched.MinLoad{},
			Availability: policy,
			Faults: faults.Scenario{
				{At: 5 * time.Second, Kind: faults.Cut, Node: "hpc", Peer: "cloud"},
				{At: healAt, Kind: faults.HealLink, Node: "hpc", Peer: "cloud"},
			},
		}, workloads.PartitionPipeline(consumers, 2*time.Second, 5*time.Second, 50e6, 10*time.Second))
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("E15 %s: %w", policy, err)
		}
		st := sim.EngineStats()
		out = append(out, E15Result{
			Policy:     policy,
			Makespan:   res.Makespan,
			RanMissing: st.RanMissing,
			Deferred:   st.Deferred,
			Reexecuted: st.Reexecuted,
			Transfers:  st.Transfers,
		})
	}
	return out, nil
}

// E15RestoreResult is the shrunk-pool restore drill.
type E15RestoreResult struct {
	// Tasks is the workload size; Snapshotted the completions recorded in
	// the restored snapshot.
	Tasks, Snapshotted int
	// RemovedNode is the node absent from the second incarnation's pool.
	RemovedNode string
	// Restored counts tasks resolved from the snapshot; Restaged the
	// versions copied back from the persist tier because their compute
	// replicas vanished with RemovedNode.
	Restored, Restaged int
	// RecomputedRestored counts snapshotted tasks that executed again in
	// the resumed run — the placement-aware restore contract demands zero.
	RecomputedRestored int
	// ResumedMakespan is the second incarnation's virtual time.
	ResumedMakespan time.Duration
}

// E15ShrunkPoolRestore checkpoints a map-reduce on a three-node pool with
// a dataClay-style persist tier, halts the engine after the map phase,
// then restores onto a pool missing one node. Map outputs whose only
// compute replica lived on the removed node are re-staged from the
// persist tier ahead of demand; no snapshotted task recomputes.
func E15ShrunkPoolRestore(nMap, nReduce int) (E15RestoreResult, error) {
	const mapDur = 10 * time.Second
	specs := workloads.MapReduce(nMap, nReduce, mapDur, 5*time.Second, 20e6)
	res := E15RestoreResult{Tasks: len(specs), RemovedNode: "n2"}

	newPool := func(nodes int) (*resources.Pool, *simnet.Network) {
		pool := resources.NewPool()
		for i := 0; i < nodes; i++ {
			_ = pool.Add(resources.NewNode(fmt.Sprintf("n%d", i), resources.Description{
				Cores: 2, MemoryMB: 16_000, SpeedFactor: 1, Class: resources.Cloud,
			}))
		}
		net := simnet.Continuum()
		for _, n := range pool.Nodes() {
			net.SetZone(n.Name(), "cloud")
		}
		net.SetZone("persist", "cloud")
		return pool, net
	}

	// Incarnation 1: three nodes, persist tier, checkpoint every
	// completion, process dies just after the map phase drains (6 map
	// slots → ceil(nMap/6) waves of mapDur). Incarnation 2: n2 is gone;
	// restore must re-stage its replicas from the persist tier instead of
	// re-running their producers.
	waves := (nMap + 5) / 6
	pool1, net1 := newPool(3)
	pool2, net2 := newPool(2)
	d, err := crashRestore("E15 restore", infra.Config{
		Pool: pool1, Net: net1, Policy: sched.MinLoad{}, PersistNode: "persist",
		HaltAt: time.Duration(waves)*mapDur + 2*time.Second,
	}, infra.Config{
		Pool: pool2, Net: net2, Policy: sched.MinLoad{}, PersistNode: "persist",
	}, 1, specs)
	if err != nil {
		return res, err
	}
	res.Snapshotted = len(d.snap.Completed)
	res.Restored = d.resumed.TasksRestored
	res.Restaged = d.resumed.ReplicasRestaged
	res.RecomputedRestored = d.startedAgain
	res.ResumedMakespan = d.resumed.Makespan
	return res, nil
}
