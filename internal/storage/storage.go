// Package storage defines the paper's storage interface (Sec. VI-A-1):
// "The storage interface is composed of two main components: the Storage
// Object interface (SOI) and the Storage Runtime interface (SRI)."
//
// The SOI is what application objects use — MakePersistent pushes an object
// to the backend, after which it is accessed like a regular object. The SRI
// is what the runtime uses — notably Locations (the paper's getLocations),
// which "will enable the runtime to exploit the locality of the data by
// scheduling tasks in the location where the data resides".
//
// Memory, in this package, implements the interface. The dataclay
// subpackage (active objects with in-store method execution) does not; it
// shares the package's ObjectID and errors.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ObjectID identifies a persisted object.
type ObjectID string

// Errors shared by backends.
var (
	// ErrNotFound is returned when an object does not exist.
	ErrNotFound = errors.New("storage: object not found")
	// ErrNotPersisted is returned by SOI operations on volatile objects.
	ErrNotPersisted = errors.New("storage: object not persisted")
	// ErrUnknownNode is returned when replicating to a node the backend
	// does not manage.
	ErrUnknownNode = errors.New("storage: unknown node")
)

// Backend is the Storage Runtime Interface (SRI).
type Backend interface {
	// Name identifies the backend implementation.
	Name() string
	// Put stores (or overwrites) an object's serialised state.
	Put(id ObjectID, val []byte) error
	// Get retrieves an object's serialised state.
	Get(id ObjectID) ([]byte, error)
	// Delete removes an object everywhere.
	Delete(id ObjectID) error
	// Exists reports whether the object is stored.
	Exists(id ObjectID) bool
	// Locations returns the nodes holding replicas — the paper's
	// getLocations, consumed by locality-aware scheduling.
	Locations(id ObjectID) []string
	// NewReplica copies the object onto an additional node.
	NewReplica(id ObjectID, node string) error
}

// Persistable is the serialisation contract for SOI objects (the subset of
// encoding.BinaryMarshaler/Unmarshaler the SOI needs).
type Persistable interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// Handle is the Storage Object Interface (SOI): it binds an in-memory
// object to its persistent identity. The zero value is a volatile handle.
type Handle struct {
	mu      sync.Mutex
	id      ObjectID
	backend Backend
}

// ID returns the persistent identity ("" while volatile).
func (h *Handle) ID() ObjectID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.id
}

// Persisted reports whether MakePersistent succeeded.
func (h *Handle) Persisted() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backend != nil
}

// MakePersistent serialises obj and stores it under id — the SOI's
// signature operation ("the more relevant method is the make persistent
// one", paper Sec. VI-A-1).
func (h *Handle) MakePersistent(b Backend, id ObjectID, obj Persistable) error {
	raw, err := obj.MarshalBinary()
	if err != nil {
		return fmt.Errorf("marshal %s: %w", id, err)
	}
	if err := b.Put(id, raw); err != nil {
		return fmt.Errorf("persist %s: %w", id, err)
	}
	h.mu.Lock()
	h.id = id
	h.backend = b
	h.mu.Unlock()
	return nil
}

// Sync re-serialises obj into the backend (after in-memory mutation).
func (h *Handle) Sync(obj Persistable) error {
	h.mu.Lock()
	b, id := h.backend, h.id
	h.mu.Unlock()
	if b == nil {
		return ErrNotPersisted
	}
	raw, err := obj.MarshalBinary()
	if err != nil {
		return fmt.Errorf("marshal %s: %w", id, err)
	}
	return b.Put(id, raw)
}

// Load refreshes obj from the backend.
func (h *Handle) Load(obj Persistable) error {
	h.mu.Lock()
	b, id := h.backend, h.id
	h.mu.Unlock()
	if b == nil {
		return ErrNotPersisted
	}
	raw, err := b.Get(id)
	if err != nil {
		return err
	}
	return obj.UnmarshalBinary(raw)
}

// DeletePersistent removes the stored state and reverts to volatile.
func (h *Handle) DeletePersistent() error {
	h.mu.Lock()
	b, id := h.backend, h.id
	h.backend = nil
	h.id = ""
	h.mu.Unlock()
	if b == nil {
		return ErrNotPersisted
	}
	return b.Delete(id)
}

// Memory is a single-node in-process Backend: the reference SRI
// implementation used in tests and as the default runtime store.
type Memory struct {
	node string

	mu   sync.RWMutex
	data map[ObjectID][]byte
}

var _ Backend = (*Memory)(nil)

// NewMemory returns a memory backend reporting the given node name in
// Locations.
func NewMemory(node string) *Memory {
	return &Memory{node: node, data: make(map[ObjectID][]byte)}
}

// Name implements Backend.
func (m *Memory) Name() string { return "memory" }

// Put implements Backend.
func (m *Memory) Put(id ObjectID, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[id] = cp
	return nil
}

// Get implements Backend.
func (m *Memory) Get(id ObjectID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	raw, ok := m.data[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cp := make([]byte, len(raw))
	copy(cp, raw)
	return cp, nil
}

// Delete implements Backend.
func (m *Memory) Delete(id ObjectID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.data[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(m.data, id)
	return nil
}

// Exists implements Backend.
func (m *Memory) Exists(id ObjectID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.data[id]
	return ok
}

// Locations implements Backend.
func (m *Memory) Locations(id ObjectID) []string {
	if !m.Exists(id) {
		return nil
	}
	return []string{m.node}
}

// NewReplica implements Backend. A single-node store cannot replicate.
func (m *Memory) NewReplica(id ObjectID, node string) error {
	if node == m.node {
		return nil
	}
	return fmt.Errorf("%w: %s (memory backend is single-node)", ErrUnknownNode, node)
}

// Len returns the number of stored objects.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// IDs returns all stored object IDs, sorted.
func (m *Memory) IDs() []ObjectID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]ObjectID, 0, len(m.data))
	for id := range m.data {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
