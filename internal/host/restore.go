// Restore: the one replay of a snapshot into a fresh incarnation, for
// both backends. The application re-registers the same workflow in the
// same order, so task IDs line up. New seeds the data catalog; then each
// recorded completion is offered once — as the live runtime's submissions
// arrive (Resolve), or all together for the simulator, whose workflow is
// registered up front (ResolveAll) — and is marked done iff all its
// outputs are still alive. "Alive" is all a backend changes: the value is
// in its table (Backend.Values) or, without one, the registry still names
// a holder. What is not alive re-runs: restore degrades to recompute,
// never to wrong answers.
package host

import (
	"fmt"
	"time"

	"repro/internal/deps"
	"repro/internal/engine/checkpoint"
	"repro/internal/trace"
)

// seedCatalog re-enters the snapshot's data catalog into the registry and
// the value table, one Seed per row. A holder the pool no longer has is
// dropped; a version that loses every holder that way is re-staged ahead
// of demand when a durable copy exists — a persist-tier replica, or the
// value the row itself carries (which a backend with a value table must
// have decoded). A row that keeps every holder hands the registry its own
// list; only a row that drops one pays for a filtered copy.
func (h *Host) seedCatalog(snap *checkpoint.Snapshot) {
	reg := h.cfg.Locations
	for i := range snap.Catalog {
		en := &snap.Catalog[i]
		durable := en.HasValue && (h.b.Values == nil || h.b.Values.Seed(en))
		if reg == nil {
			continue
		}
		kept, live, vanished := en.Locations, 0, 0
		for j, loc := range en.Locations {
			if _, ok := h.cfg.Pool.Get(loc); ok {
				live++
			} else if loc != "" && loc == h.cfg.PersistNode {
				durable = true
			} else {
				if vanished == 0 {
					kept = append(make([]string, 0, len(en.Locations)-1), en.Locations[:j]...)
				}
				vanished++
				continue
			}
			if vanished > 0 {
				kept = append(kept, loc)
			}
		}
		reg.Seed(en.Key, en.Size, kept)
		if live == 0 && vanished > 0 && durable {
			h.restage(en.Key, en.Size)
		}
	}
}

// restage copies k onto the pool node with the cheapest fetch from the
// persist tier — pool order on ties, nodes behind a cut link skipped, the
// first node when there is nothing to price by — and books the copy, so an
// eager re-stage is not free relative to a demand fetch.
func (h *Host) restage(k deps.Version, size int64) {
	from, net := h.cfg.PersistNode, h.cfg.Net
	best, cost := "", time.Duration(0)
	for _, n := range h.cfg.Pool.Nodes() {
		if net == nil || from == "" {
			best, from = n.Name(), "snapshot value"
			break
		}
		if !net.Reachable(from, n.Name()) {
			continue
		}
		if t := net.TransferTime(from, n.Name(), size); best == "" || t < cost {
			best, cost = n.Name(), t
		}
	}
	if best == "" {
		return
	}
	h.cfg.Locations.AddReplica(k, best)
	h.restaged++
	h.restagedBytes += size
	h.restageTime += cost
	h.cfg.Tracer.Record(trace.Event{
		Kind: trace.DataRestaged, Node: best,
		Info: fmt.Sprintf("data %d v%d from %s", k.Data, k.Ver, from),
	})
}

// alive reports whether every recorded output survived.
func (h *Host) alive(outputs []deps.Version) bool {
	vals := h.b.Values
	if vals != nil && len(outputs) == 0 && len(h.cfg.Restore.Catalog) == 0 {
		// An engine run without a registry drops done tasks' output lists
		// and captures no catalog: the empty list proves nothing, and
		// resolving on it would hand out futures with no values behind them.
		return false
	}
	for _, k := range outputs {
		if vals != nil {
			if !vals.Present(k) {
				return false
			}
		} else if len(h.cfg.Locations.Where(k)) == 0 {
			return false
		}
	}
	return true
}

// lookup returns id's recorded completion while it awaits its offer —
// taking it off the table when the caller is about to make that offer —
// and whether id has been resolved already. The by-ID index is built on
// first use: ResolveAll, which replays the snapshot whole, never pays for
// it.
func (h *Host) lookup(id int64, take bool) (rec *checkpoint.TaskRecord, resolved bool) {
	if h.cfg.Restore == nil {
		return nil, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.recorded == nil {
		done := h.cfg.Restore.Completed
		h.recorded = make(map[int64]*checkpoint.TaskRecord, len(done))
		for i := range done {
			h.recorded[done[i].ID] = &done[i]
		}
	}
	rec = h.recorded[id]
	if take {
		delete(h.recorded, id)
	}
	_, resolved = h.resolved[id]
	return rec, resolved
}

// Resolve offers one just-registered task to the restore snapshot. If it
// is recorded completed and alive it is marked done in the engine —
// dependents release as a live completion would release them — and never
// executes (the live runtime then completes its Future). Otherwise the
// hold Admit put on it is lifted and it runs. wave reports whether either
// left something ready to place.
func (h *Host) Resolve(id int64) (resolved, wave bool) {
	rec, _ := h.lookup(id, true)
	if rec == nil {
		return false, false
	}
	if h.resolve(rec) {
		return true, true
	}
	return false, h.eng.ReleaseHold(id)
}

// ResolveAll offers every recorded completion, in snapshot order (count
// them with RestoredTasks).
func (h *Host) ResolveAll() {
	if h.cfg.Restore == nil {
		return
	}
	done := h.cfg.Restore.Completed
	for i := range done {
		h.resolve(&done[i])
	}
	h.mu.Lock()
	h.recorded = map[int64]*checkpoint.TaskRecord{} // every record has had its offer
	h.mu.Unlock()
}

func (h *Host) resolve(rec *checkpoint.TaskRecord) bool {
	if !h.alive(rec.Outputs) || !h.eng.RestoreCompleted(rec.ID, rec.Epoch) {
		return false
	}
	if h.resolved != nil {
		h.mu.Lock()
		h.resolved[rec.ID] = struct{}{}
		h.mu.Unlock()
	}
	if h.cfg.Tracer != nil {
		h.cfg.Tracer.Record(trace.Event{At: h.b.Clock.Now(), Kind: trace.CheckpointRestored, Task: rec.ID})
	}
	return true
}

// RestoredTasks counts the tasks resolved instead of executed.
func (h *Host) RestoredTasks() int { return h.eng.Stats().Restored }

// RestagedReplicas counts the versions re-staged because every node
// recorded as holding them had left the pool.
func (h *Host) RestagedReplicas() int { return h.restaged }

// RestageTraffic prices those copies: bytes and summed transfer time.
func (h *Host) RestageTraffic() (int64, time.Duration) { return h.restagedBytes, h.restageTime }
