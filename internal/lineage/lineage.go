// Package lineage implements the paper's data-computing metrics: "the
// data-computing metrics will be used to compute the trade-off between the
// cost of storing data generated or re-computing them. While storing
// results has been since now the followed approach, the project will
// propose new unconventional strategies to reduce cost of storage and
// optimize computing" (Sec. VI-C).
//
// Each datum carries its producing cost and its size; the lineage graph
// lets the model price "recompute" as the cost of re-running the producing
// task plus recursively materialising any evicted inputs. Three policies
// are provided: StoreAll (the classic approach), RecomputeAll (keep only
// sources) and Adaptive (store when storing is cheaper than the expected
// recomputation).
package lineage

import (
	"fmt"
	"sort"
	"time"
)

// ItemID identifies a datum in the lineage graph.
type ItemID int64

// Item is one datum with its production facts.
type Item struct {
	ID ItemID
	// SizeBytes is the materialised size.
	SizeBytes int64
	// ComputeCost is the time to re-run the producing task (its inputs
	// being available).
	ComputeCost time.Duration
	// Inputs are the items the producing task consumes. Source items
	// (externally provided) have none and are always stored.
	Inputs []ItemID
}

// Graph is a lineage DAG of items. Not safe for concurrent mutation.
type Graph struct {
	items map[ItemID]*Item
	order []ItemID
}

// NewGraph returns an empty lineage graph.
func NewGraph() *Graph {
	return &Graph{items: make(map[ItemID]*Item)}
}

// Add inserts an item. Inputs must already exist; unknown inputs are an
// error so costs stay well defined.
func (g *Graph) Add(it Item) error {
	if _, dup := g.items[it.ID]; dup {
		return fmt.Errorf("lineage: duplicate item %d", it.ID)
	}
	for _, in := range it.Inputs {
		if _, ok := g.items[in]; !ok {
			return fmt.Errorf("lineage: item %d references unknown input %d", it.ID, in)
		}
	}
	cp := it
	cp.Inputs = append([]ItemID(nil), it.Inputs...)
	g.items[it.ID] = &cp
	g.order = append(g.order, it.ID)
	return nil
}

// IsSource reports whether the item has no inputs.
func (g *Graph) IsSource(id ItemID) bool {
	it, ok := g.items[id]
	return ok && len(it.Inputs) == 0
}

// CostModel prices storage and recomputation.
type CostModel struct {
	// StorageMBps converts bytes into the time cost of writing + later
	// reading the datum from the persistent backend.
	StorageMBps float64
	// ReadMBps is the cost of reading a stored datum on access. If 0,
	// StorageMBps is used.
	ReadMBps float64
}

// StoreCost returns the one-time cost of persisting an item.
func (m CostModel) StoreCost(it Item) time.Duration {
	if m.StorageMBps <= 0 {
		return 0
	}
	sec := float64(it.SizeBytes) / (m.StorageMBps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// ReadCost returns the per-access cost of loading a stored item.
func (m CostModel) ReadCost(it Item) time.Duration {
	mbps := m.ReadMBps
	if mbps <= 0 {
		mbps = m.StorageMBps
	}
	if mbps <= 0 {
		return 0
	}
	sec := float64(it.SizeBytes) / (mbps * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// RecomputeCost returns the time to materialise id when only the items in
// stored are available: the producing task's cost plus, recursively, the
// cost of recomputing every evicted input. Stored (or source) items cost
// their read time.
func (g *Graph) RecomputeCost(id ItemID, stored map[ItemID]bool, m CostModel) time.Duration {
	memo := make(map[ItemID]time.Duration)
	return g.recompute(id, stored, m, memo)
}

func (g *Graph) recompute(id ItemID, stored map[ItemID]bool, m CostModel, memo map[ItemID]time.Duration) time.Duration {
	if c, ok := memo[id]; ok {
		return c
	}
	it, ok := g.items[id]
	if !ok {
		return 0
	}
	var cost time.Duration
	if stored[id] || len(it.Inputs) == 0 {
		// Available (sources are always materialised): pay the read.
		cost = m.ReadCost(*it)
	} else {
		cost = it.ComputeCost
		for _, in := range it.Inputs {
			cost += g.recompute(in, stored, m, memo)
		}
	}
	memo[id] = cost
	return cost
}

// Policy decides which intermediate items to persist.
type Policy int

// Store-vs-recompute policies (E9).
const (
	// StoreAll persists every intermediate (the classic approach).
	StoreAll Policy = iota + 1
	// RecomputeAll persists nothing but sources.
	RecomputeAll
	// Adaptive persists an item iff storing is cheaper than the
	// expected cost of recomputing it for the anticipated accesses.
	Adaptive
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case StoreAll:
		return "store-all"
	case RecomputeAll:
		return "recompute-all"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PlanResult summarises a policy evaluation over an access pattern.
type PlanResult struct {
	Policy Policy
	// Stored is the set of persisted intermediates.
	Stored []ItemID
	// StoredBytes is the persistent-storage footprint.
	StoredBytes int64
	// StoreTime is the total time spent persisting.
	StoreTime time.Duration
	// AccessTime is the total time to serve the access trace.
	AccessTime time.Duration
	// TotalTime = StoreTime + AccessTime: the figure of merit.
	TotalTime time.Duration
}

// Evaluate prices a policy against an access trace (a multiset of item
// reads, e.g. each downstream consumer). expectedReuse is the per-item
// access count the Adaptive policy assumes when deciding (commonly the
// mean of the trace).
func (g *Graph) Evaluate(p Policy, accesses []ItemID, expectedReuse float64, m CostModel) PlanResult {
	stored := make(map[ItemID]bool)
	switch p {
	case StoreAll:
		for _, id := range g.order {
			if !g.IsSource(id) {
				stored[id] = true
			}
		}
	case RecomputeAll:
		// nothing
	case Adaptive:
		if expectedReuse <= 0 {
			expectedReuse = 1
		}
		// Decide in topological order so upstream decisions are known
		// when pricing downstream recomputation.
		for _, id := range g.order {
			if g.IsSource(id) {
				continue
			}
			it := g.items[id]
			store := m.StoreCost(*it) + time.Duration(expectedReuse*float64(m.ReadCost(*it)))
			recompute := time.Duration(expectedReuse * float64(g.RecomputeCost(id, stored, m)))
			if store < recompute {
				stored[id] = true
			}
		}
	}

	res := PlanResult{Policy: p}
	for _, id := range g.order {
		if stored[id] {
			it := g.items[id]
			res.Stored = append(res.Stored, id)
			res.StoredBytes += it.SizeBytes
			res.StoreTime += m.StoreCost(*it)
		}
	}
	sort.Slice(res.Stored, func(i, j int) bool { return res.Stored[i] < res.Stored[j] })
	for _, id := range accesses {
		res.AccessTime += g.RecomputeCost(id, stored, m)
	}
	res.TotalTime = res.StoreTime + res.AccessTime
	return res
}
