// Package deps implements the Access Processor of the COMPSs runtime
// ("the AP is the component of the runtime that receives calls from the
// instrumented code and builds a dependency graph", paper Sec. VI-B, Fig. 6).
//
// Tasks declare how they access data (IN, OUT, INOUT, CONCURRENT,
// COMMUTATIVE); the processor derives inter-task dependencies
// automatically. Like COMPSs, it applies *renaming*: every write creates a
// fresh version of the datum, which removes write-after-read and
// write-after-write false dependencies. Renaming can be disabled to measure
// its effect (ablation A1 in the README's Experiments).
//
// A Processor is safe for concurrent use under one mutex. Registration
// order is the dependency order, so callers that care which task came
// first serialise their own registrations (both backends do) and the
// mutex adds only that unsynchronised readers see a consistent table.
package deps

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// DataID identifies a logical datum (a file, an object, a future value).
type DataID int64

// TaskID identifies a task in the dependency graph.
type TaskID int64

// Direction describes how a task accesses a parameter.
type Direction int

// Access directions, mirroring the COMPSs parameter annotations.
const (
	// In declares a read-only access.
	In Direction = iota + 1
	// Out declares a write that fully overwrites the datum.
	Out
	// InOut declares a read-modify-write access.
	InOut
	// Concurrent declares accesses that may run simultaneously (e.g.
	// tasks appending to a shared persistent structure); later
	// non-concurrent accesses wait for all of them.
	Concurrent
	// Commutative declares writes whose order is irrelevant (e.g.
	// reductions); they do not depend on each other, but later accesses
	// depend on all of them.
	Commutative
)

// String returns the annotation name.
func (d Direction) String() string {
	switch d {
	case In:
		return "IN"
	case Out:
		return "OUT"
	case InOut:
		return "INOUT"
	case Concurrent:
		return "CONCURRENT"
	case Commutative:
		return "COMMUTATIVE"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Reads reports whether the direction implies reading the previous value.
func (d Direction) Reads() bool {
	return d == In || d == InOut || d == Concurrent || d == Commutative
}

// Writes reports whether the direction implies producing a new value.
func (d Direction) Writes() bool {
	return d == Out || d == InOut || d == Commutative || d == Concurrent
}

// Access pairs a datum with a direction.
type Access struct {
	Data DataID
	Dir  Direction
}

// Version is a specific immutable version of a datum. Version numbers start
// at 1 for the first write; version 0 denotes the initial (externally
// provided) value. It is the one spelling of a data version in the tree:
// the engine, the location registry, the checkpoint catalog (so its field
// names are part of checkpoint.Format) and provenance all key on it.
type Version struct {
	Data DataID
	Ver  int
}

// String formats the version as d<id>v<ver>.
func (v Version) String() string { return fmt.Sprintf("d%dv%d", v.Data, v.Ver) }

// Compare orders versions by (Data, Ver) — the canonical catalog order —
// returning -1, 0 or +1 as cmp.Compare does.
func (v Version) Compare(o Version) int {
	return cmp.Or(cmp.Compare(v.Data, o.Data), cmp.Compare(v.Ver, o.Ver))
}

// EdgeKind classifies a dependency edge.
type EdgeKind int

// Dependency kinds. With renaming enabled only true (RAW and group) edges
// are produced.
const (
	// RAW is a true read-after-write dependency.
	RAW EdgeKind = iota + 1
	// WAR is a write-after-read false dependency (renaming removes it).
	WAR
	// WAW is a write-after-write false dependency (renaming removes it).
	WAW
	// Group is an edge forced by concurrent/commutative group semantics.
	Group
)

// String returns the edge-kind name.
func (k EdgeKind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	case Group:
		return "GROUP"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Result reports the outcome of registering one task.
type Result struct {
	// Deps lists the tasks this one must wait for (sorted, de-duplicated).
	Deps []TaskID
	// Reads lists the exact data versions consumed.
	Reads []Version
	// Writes lists the data versions produced.
	Writes []Version
}

// Stats counts dependency edges by kind since the processor was created.
type Stats struct {
	RAW, WAR, WAW, Group int
}

// Total returns the total number of edges.
func (s Stats) Total() int { return s.RAW + s.WAR + s.WAW + s.Group }

// dataState tracks the bookkeeping for one datum.
type dataState struct {
	ver         int
	lastWriter  TaskID   // NoTask when version 0 is externally provided
	readers     []TaskID // kept only without renaming: nothing else reads it
	groupAccess []TaskID // concurrent/commutative accessors of current version
}

// NoTask is the sentinel for "no producing task" (externally provided data).
const NoTask TaskID = -1

// Processor derives task dependencies from declared accesses. One mutex
// guards the datum table and the edge counters: registration is
// inherently serial (each task sees the state its predecessors left), and
// its callers already arrive one at a time — the live runtime registers
// under its own lock, the simulator is single-threaded — so the lock is
// there for the readers that do not (Runtime.CurrentVersion, Stats).
type Processor struct {
	renaming bool

	mu    sync.Mutex
	data  map[DataID]*dataState
	stats Stats
	edges []depEdge // scratch: the task being registered's edges, as sighted
}

// depEdge is one sighting of a producer while a task's accesses are walked.
type depEdge struct {
	on   TaskID
	kind EdgeKind
}

// Option configures a Processor.
type Option func(*Processor)

// Renaming sets whether every write creates a fresh version (on by
// default). Off, WAR and WAW edges are produced; it exists for the
// ablation experiment.
func Renaming(on bool) Option {
	return func(p *Processor) { p.renaming = on }
}

// NewProcessor returns an access processor with renaming enabled.
func NewProcessor(opts ...Option) *Processor {
	p := &Processor{renaming: true, data: make(map[DataID]*dataState)}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Stats returns edge counts by kind.
func (p *Processor) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// CurrentVersion returns the newest version of a datum (0 if never written
// and never registered).
func (p *Processor) CurrentVersion(d DataID) Version {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.data[d]
	if !ok {
		return Version{Data: d, Ver: 0}
	}
	return Version{Data: d, Ver: st.ver}
}

// TaskAccesses pairs a task with its declared accesses, for registration.
type TaskAccesses struct {
	Task     TaskID
	Accesses []Access
}

// AppendBatch records the accesses of each task of batch, in slice order
// under one lock acquisition, and appends to dst one Result per task: its
// dependencies and the exact data versions it reads and writes. Accesses
// on the same datum within one task should be merged by the caller (if
// not, later entries see the state left by earlier ones). The tasks'
// Reads, Writes and Deps are carved from arrays sized by a counting pass
// over the batch, so a million-task graph pays a handful of allocations
// per batch, not several per task; those arrays live as long as any list
// carved from them. The results are transient: a caller registering
// window by window, or submission by submission, reuses one dst.
func (p *Processor) AppendBatch(dst []Result, batch []TaskAccesses) []Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s slab
	versions := 0
	for _, b := range batch {
		nr, nw := countAccesses(b.Accesses)
		versions += nr + nw
		s.reads += nr
	}
	s.vers = make([]Version, versions)
	dst = slices.Grow(dst, len(batch))
	for _, b := range batch {
		dst = append(dst, p.registerLocked(b.Task, b.Accesses, &s))
	}
	return dst
}

// slab is the room one registration call carves its tasks' lists from. A carved list has cap == len, so a
// consumer's append copies instead of writing into its neighbour.
type slab struct {
	vers []Version // Reads and Writes: the exact count, known before the walk
	ids  []TaskID  // Deps: counted only once a task's edges are de-duplicated
	// reads counts the reading accesses of the tasks not yet registered —
	// what their Deps will come to, near enough, when ids has to be made.
	reads int
}

// carve takes the next n slots of *room (making exactly n + spare when it
// has fewer) and returns them as an empty list of capacity n.
func carve[T any](room *[]T, n, spare int) []T {
	if n == 0 {
		return nil
	}
	if len(*room) < n {
		*room = make([]T, n+spare)
	}
	out := (*room)[:0:n]
	*room = (*room)[n:]
	return out
}

// countAccesses returns how many versions the accesses read and write.
func countAccesses(accesses []Access) (reads, writes int) {
	for _, a := range accesses {
		if a.Dir.Reads() {
			reads++
		}
		if a.Dir.Writes() {
			writes++
		}
	}
	return reads, writes
}

// dependOn sights one producer of the task being registered.
func (p *Processor) dependOn(task, on TaskID, kind EdgeKind) {
	if on != NoTask && on != task {
		p.edges = append(p.edges, depEdge{on, kind})
	}
}

// registerLocked registers one task with p.mu held, carving its result
// from s.
func (p *Processor) registerLocked(task TaskID, accesses []Access, s *slab) Result {
	if len(accesses) == 0 {
		return Result{}
	}
	nr, nw := countAccesses(accesses)
	s.reads = max(s.reads-nr, 0)
	res := Result{Reads: carve(&s.vers, nr, nw), Writes: carve(&s.vers, nw, 0)}
	p.edges = p.edges[:0]

	for _, a := range accesses {
		st, ok := p.data[a.Data]
		if !ok {
			st = &dataState{lastWriter: NoTask}
			p.data[a.Data] = st
		}

		switch a.Dir {
		case In:
			p.dependOn(task, st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				p.dependOn(task, g, Group)
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			if !p.renaming {
				st.readers = append(st.readers, task)
			}

		case Out:
			if !p.renaming {
				p.dependOn(task, st.lastWriter, WAW)
				for _, r := range st.readers {
					p.dependOn(task, r, WAR)
				}
			}
			// Group accessors mutate the live object in place, so a
			// superseding write must wait for them even with renaming.
			for _, g := range st.groupAccess {
				p.dependOn(task, g, Group)
			}
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})

		case InOut:
			p.dependOn(task, st.lastWriter, RAW)
			for _, g := range st.groupAccess {
				p.dependOn(task, g, Group)
			}
			if !p.renaming {
				for _, r := range st.readers {
					p.dependOn(task, r, WAR)
				}
			}
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			st.ver++
			st.lastWriter = task
			st.readers = nil
			st.groupAccess = nil
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})

		case Concurrent, Commutative:
			// Members depend on the preceding writer but not on each
			// other; later accesses depend on all members.
			p.dependOn(task, st.lastWriter, RAW)
			res.Reads = append(res.Reads, Version{Data: a.Data, Ver: st.ver})
			res.Writes = append(res.Writes, Version{Data: a.Data, Ver: st.ver})
			st.groupAccess = append(st.groupAccess, task)
		}
	}

	// A producer sighted more than once is one edge, of the kind it was
	// first sighted under: the stable sort keeps that sighting at the head
	// of the producer's run, and Deps comes out sorted.
	slices.SortStableFunc(p.edges, func(a, b depEdge) int { return cmp.Compare(a.on, b.on) })
	p.edges = slices.CompactFunc(p.edges, func(a, b depEdge) bool { return a.on == b.on })
	res.Deps = carve(&s.ids, len(p.edges), s.reads)
	for _, e := range p.edges {
		res.Deps = append(res.Deps, e.on)
		switch e.kind {
		case RAW:
			p.stats.RAW++
		case WAR:
			p.stats.WAR++
		case WAW:
			p.stats.WAW++
		case Group:
			p.stats.Group++
		}
	}
	return res
}
