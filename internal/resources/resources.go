// Package resources models the heterogeneous computing resources of an
// advanced cyberinfrastructure platform (paper Sec. III): HPC nodes, cloud
// VMs, fog devices and edge sensors, each described by cores, memory,
// accelerators and installed software.
//
// It implements the resource *constraints* on task types the paper
// singles out ("a specific type of processor, such as a GPU, … a number
// of cores, memory available for the task or the existence of a specific
// software", Sec. VI-A), matched dynamically at scheduling time so
// variable memory constraints work (E2). A pool's membership may change
// while it runs: internal/autoscale grows and shrinks it through Add,
// Remove and the node cordon (Drain/Undrain).
package resources

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
)

// Class categorises a node within the computing continuum.
type Class int

// Continuum tiers, from the paper's Fig. 5 plus the HPC systems of Sec. III.
const (
	// HPC is a supercomputer node (MareNostrum-class).
	HPC Class = iota + 1
	// Cloud is a public/private cloud VM.
	Cloud
	// Fog is a capable edge aggregator (smartphone, gateway).
	Fog
	// Edge is a sensor/instrument-class device.
	Edge
)

// String returns the tier name.
func (c Class) String() string {
	switch c {
	case HPC:
		return "hpc"
	case Cloud:
		return "cloud"
	case Fog:
		return "fog"
	case Edge:
		return "edge"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Description is the static capability sheet of a node.
type Description struct {
	// Cores is the number of CPU cores.
	Cores int
	// MemoryMB is the RAM available to tasks, in megabytes.
	MemoryMB int64
	// GPUs is the number of accelerator devices.
	GPUs int
	// Software lists installed packages task constraints can require.
	Software []string
	// Class is the continuum tier.
	Class Class
	// SpeedFactor scales task durations: a task of base duration d runs
	// in d / SpeedFactor. 1.0 is the reference (HPC core); fog and edge
	// devices are typically < 1.
	SpeedFactor float64
	// IdleWatts and ActiveWattsPerCore feed the energy model.
	IdleWatts          float64
	ActiveWattsPerCore float64
}

// Constraints restrict where a task may run, mirroring the COMPSs
// @constraint annotation. Zero values mean "no requirement".
type Constraints struct {
	// Cores this task occupies while running (0 ⇒ 1).
	Cores int
	// MemoryMB the task needs reserved.
	MemoryMB int64
	// GPUs the task needs reserved.
	GPUs int
	// Software names that must be installed on the node.
	Software []string
	// Class restricts to one continuum tier (0 ⇒ any).
	Class Class
	// Nodes > 1 marks a multi-node (MPI) task; each node contributes
	// Cores cores.
	Nodes int
}

// EffectiveCores returns Cores, defaulting to 1.
func (c Constraints) EffectiveCores() int { return max(c.Cores, 1) }

// EffectiveNodes returns Nodes, defaulting to 1.
func (c Constraints) EffectiveNodes() int { return max(c.Nodes, 1) }

// Signature canonicalises the constraints into a string key. Two tasks
// with the same signature are placeable on exactly the same nodes, which
// is what lets scheduling engines shard their ready queues per signature.
// The zero value (no requirements) returns a constant, so unconstrained
// hot paths pay nothing.
func (c Constraints) Signature() string {
	if c.Cores == 0 && c.MemoryMB == 0 && c.GPUs == 0 &&
		c.Nodes == 0 && c.Class == 0 && len(c.Software) == 0 {
		return "-"
	}
	b := make([]byte, 0, 32)
	b = strconv.AppendInt(b, int64(c.Cores), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, c.MemoryMB, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.GPUs), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Nodes), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(c.Class), 10)
	for _, sw := range c.Software {
		// Length-prefixed so names containing the separator cannot make
		// two different constraint sets collide into one signature.
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(len(sw)), 10)
		b = append(b, ':')
		b = append(b, sw...)
	}
	return string(b)
}

// Satisfies reports whether a node with this description can ever run a
// task with the given constraints (capacity check, ignoring current load).
func (d Description) Satisfies(c Constraints) bool {
	if c.EffectiveCores() > d.Cores || c.MemoryMB > d.MemoryMB || c.GPUs > d.GPUs ||
		(c.Class != 0 && c.Class != d.Class) {
		return false
	}
	for _, sw := range c.Software {
		if !slices.Contains(d.Software, sw) {
			return false
		}
	}
	return true
}

// Profiles for common node types. SpeedFactor and power numbers are
// representative, not measured; experiments only rely on their ordering.
var (
	// MareNostrumNode mirrors the 48-core nodes of the paper's GUIDANCE
	// runs (Sec. VI-A: "100 nodes of the Marenostrum supercomputer
	// (4800 cores)").
	MareNostrumNode = Description{
		Cores: 48, MemoryMB: 96_000, Class: HPC, SpeedFactor: 1.0,
		IdleWatts: 150, ActiveWattsPerCore: 6,
	}
	// CloudVM is a general-purpose 8-core VM.
	CloudVM = Description{
		Cores: 8, MemoryMB: 32_000, Class: Cloud, SpeedFactor: 0.8,
		IdleWatts: 40, ActiveWattsPerCore: 8,
	}
	// FogDevice is a smartphone/gateway-class device (paper Sec. VI-B).
	FogDevice = Description{
		Cores: 4, MemoryMB: 6_000, Class: Fog, SpeedFactor: 0.25,
		IdleWatts: 2, ActiveWattsPerCore: 1.0,
	}
	// EdgeSensor can run tiny filtering tasks only.
	EdgeSensor = Description{
		Cores: 1, MemoryMB: 512, Class: Edge, SpeedFactor: 0.05,
		IdleWatts: 0.5, ActiveWattsPerCore: 0.7,
	}
)

// Errors returned by reservation and pool operations.
var (
	ErrInsufficient = errors.New("resources: insufficient free capacity")
	ErrUnknownNode  = errors.New("resources: unknown node")
	ErrNodeExists   = errors.New("resources: node already in pool")
)

// Node is a stateful compute node: a static description plus current free
// capacity. Node is safe for concurrent use.
type Node struct {
	name string
	desc Description

	mu      sync.Mutex
	st      capState // free capacity and cordon: what the placement index caches
	running int
	// watchers are the node's records in the placement indexes of the
	// pools holding it; they are notified (under mu, so deliveries are
	// ordered) after every capacity or drain-state change.
	watchers []*rec
}

// NewNode creates a node with all capacity free.
func NewNode(name string, desc Description) *Node {
	if desc.SpeedFactor <= 0 {
		desc.SpeedFactor = 1.0
	}
	return &Node{name: name, desc: desc,
		st: capState{freeCores: desc.Cores, freeMemMB: desc.MemoryMB, freeGPUs: desc.GPUs}}
}

// notifyLocked delivers the current state to every watching index.
// Callers hold mu, so notifications arrive in mutation order and a
// watcher's cache can never run backwards.
func (n *Node) notifyLocked() {
	for _, w := range n.watchers {
		w.changed(n.st)
	}
}

// attachIndex registers idx as a watcher and installs the node's current
// state in it, atomically with respect to concurrent Reserve/Release.
func (n *Node) attachIndex(idx *Index) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, idx.addNode(n, n.st))
}

// detachIndex unregisters idx and drops the node from it.
func (n *Node) detachIndex(idx *Index) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, w := range n.watchers {
		if w.x == idx {
			n.watchers = without(n.watchers, w)
			idx.removeNode(w)
			break
		}
	}
}

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// Desc returns the static description.
func (n *Node) Desc() Description { return n.desc }

// FreeCores returns currently unreserved cores.
func (n *Node) FreeCores() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.freeCores
}

// Running returns the number of reservations currently held.
func (n *Node) Running() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running
}

// Drain cordons the node: new reservations are refused while running work
// keeps its capacity until released — the graceful half of deregistration
// (a crash is Pool.Remove; a drain lets the scheduler bleed the node dry
// first).
func (n *Node) Drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.st.drained = true
	n.notifyLocked()
}

// Undrain lifts a cordon.
func (n *Node) Undrain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.st.drained = false
	n.notifyLocked()
}

// Drained reports whether the node is cordoned.
func (n *Node) Drained() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st.drained
}

// CanReserve reports whether the node currently has free capacity for c
// (and statically satisfies it). Drained nodes refuse all reservations.
func (n *Node) CanReserve(c Constraints) bool {
	if !n.desc.Satisfies(c) {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.st.drained && n.st.fits(c)
}

// Reserve atomically claims the capacity demanded by c, or returns
// ErrInsufficient without side effects.
func (n *Node) Reserve(c Constraints) error {
	if !n.desc.Satisfies(c) {
		return fmt.Errorf("%w: %s cannot satisfy %+v", ErrInsufficient, n.name, c)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.st.drained || !n.st.fits(c) {
		return ErrInsufficient
	}
	n.st.freeCores -= c.EffectiveCores()
	n.st.freeMemMB -= c.MemoryMB
	n.st.freeGPUs -= c.GPUs
	n.running++
	n.notifyLocked()
	return nil
}

// Release returns previously reserved capacity. Releasing more than was
// reserved clamps to full capacity (and indicates a caller bug, but must
// not corrupt accounting).
func (n *Node) Release(c Constraints) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.releaseLocked(c)
}

func (n *Node) releaseLocked(c Constraints) {
	n.st.freeCores = min(n.st.freeCores+c.EffectiveCores(), n.desc.Cores)
	n.st.freeMemMB = min(n.st.freeMemMB+c.MemoryMB, n.desc.MemoryMB)
	n.st.freeGPUs = min(n.st.freeGPUs+c.GPUs, n.desc.GPUs)
	n.running = max(n.running-1, 0)
	n.notifyLocked()
}

// BusyCores returns the number of reserved cores.
func (n *Node) BusyCores() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.desc.Cores - n.st.freeCores
}

// Pool is a named collection of nodes; the runtime's view of the available
// infrastructure. The set can change at execution time ("the list of
// resources available to the runtime can be configured at execution time",
// paper Sec. VI-B). Pool is safe for concurrent use.
type Pool struct {
	mu    sync.RWMutex
	nodes map[string]*Node
	order []*Node // insertion order for deterministic iteration
	idx   *Index  // placement index (see index.go); never nil
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{nodes: make(map[string]*Node), idx: newIndex()}
}

// Add inserts a node; the name must be unique. The placement index picks
// the node up atomically with the insertion.
func (p *Pool) Add(n *Node) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.nodes[n.Name()]; dup {
		return fmt.Errorf("%w: %s", ErrNodeExists, n.Name())
	}
	p.nodes[n.Name()] = n
	p.order = append(p.order, n)
	n.attachIndex(p.idx)
	return nil
}

// Remove deletes a node by name and drops it from the placement index.
func (p *Pool) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	delete(p.nodes, name)
	p.order = without(p.order, n)
	n.detachIndex(p.idx)
	return nil
}

// Get returns a node by name.
func (p *Pool) Get(name string) (*Node, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n, ok := p.nodes[name]
	return n, ok
}

// Release returns c's capacity to n if n itself — not merely some node of
// its name — is still in the pool, and reports whether it was: test and
// release are one critical section on the node, so a completion racing a
// node failure either releases before the removal or not at all.
func (p *Pool) Release(n *Node, c Constraints) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, w := range n.watchers {
		if w.x == p.idx {
			n.releaseLocked(c)
			return true
		}
	}
	return false
}

// Nodes returns the nodes in insertion order.
func (p *Pool) Nodes() []*Node {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return slices.Clone(p.order)
}

// Len returns the number of nodes.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.nodes)
}

// Fitting returns the nodes that currently have free capacity for c, in
// insertion order. Served from the placement index: one signature-set
// lookup over cached capacity instead of a full-pool scan that takes
// every node's mutex.
func (p *Pool) Fitting(c Constraints) []*Node {
	return p.IndexFor(c).Candidates(c, nil).Nodes()
}

// AnyCapable reports whether some node could ever run c (ignoring load),
// without allocating — the submit-path admission check. O(1) after the
// signature's first query.
func (p *Pool) AnyCapable(c Constraints) bool {
	return p.IndexFor(c).Len() > 0
}

// TotalCores sums cores across the pool.
func (p *Pool) TotalCores() int {
	total := 0
	for _, n := range p.Nodes() {
		total += n.Desc().Cores
	}
	return total
}

// FreeCores sums free cores across the pool.
func (p *Pool) FreeCores() int {
	total := 0
	for _, n := range p.Nodes() {
		total += n.FreeCores()
	}
	return total
}
