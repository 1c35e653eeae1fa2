// Package dataclay reimplements the behaviour of BSC's dataClay: "a
// distributed active object store which enables applications to store and
// retrieve objects with the same format they have in memory. In addition to
// storing the objects themselves, dataClay also holds a registry of the
// classes where the objects belong, including their methods, which are
// executed within the object store transparently to applications. This
// feature minimizes the number of data transfers" (paper Sec. VI-A-1).
//
// The store keeps live Go values. A method call ships the (small)
// arguments into the store and returns the (small) result — instead of
// fetching the (large) object — and the store counts both byte flows so
// experiment E5 can report the savings. Objects live outside any compute
// node, so they survive a node's failure, which is what the agent layer's
// recovery relies on (E7).
package dataclay

import (
	"errors"
	"fmt"
	"sync"
)

// ObjectID identifies a stored object.
type ObjectID string

// Errors returned by the store.
var (
	// ErrNotFound is returned when an object does not exist.
	ErrNotFound = errors.New("dataclay: object not found")
	// ErrUnknownClass is returned when instantiating an unregistered class.
	ErrUnknownClass = errors.New("dataclay: unknown class")
	// ErrUnknownMethod is returned when calling an unregistered method.
	ErrUnknownMethod = errors.New("dataclay: unknown method")
)

// Method executes against an object's live state inside the store. It
// returns the (possibly replaced) state and a result value.
type Method func(state any, args any) (newState any, result any, err error)

// Class is a registered type: a name plus its in-store executable methods.
type Class struct {
	Name    string
	Methods map[string]Method
	// Size estimates the byte size of a state value (for transfer
	// accounting). Nil means "unknown": fetches count zero bytes.
	Size func(state any) int64
}

// entry is one stored object.
type entry struct {
	// exec serialises method executions on this object, like the real
	// dataClay's per-object execution environment: two concurrent Calls
	// must not interleave their read-modify-write of state.
	exec  sync.Mutex
	class string
	state any
}

// Stats counts the byte flows of the two access styles compared in E5.
type Stats struct {
	// MethodCalls counts in-store executions.
	MethodCalls int
	// BytesShipped is the args+results payload moved by method calls.
	BytesShipped int64
	// Fetches counts whole-object retrievals.
	Fetches int
	// BytesFetched is the object payload moved by fetches.
	BytesFetched int64
}

// Store is the active object store. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	classes map[string]Class
	objects map[ObjectID]*entry
	serial  int
	stats   Stats
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{classes: make(map[string]Class), objects: make(map[ObjectID]*entry)}
}

// RegisterClass adds a class to the registry. Re-registration replaces it.
func (s *Store) RegisterClass(c Class) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Methods == nil {
		c.Methods = make(map[string]Method)
	}
	s.classes[c.Name] = c
}

// NewObject stores a new object of the given class and returns its ID.
func (s *Store) NewObject(class string, state any) (ObjectID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.classes[class]; !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	s.serial++
	id := ObjectID(fmt.Sprintf("%s-%d", class, s.serial))
	s.objects[id] = &entry{class: class, state: state}
	return id, nil
}

// Call executes a registered method inside the store: the paper's
// in-store execution. argBytes and the result size are charged to
// BytesShipped; the object itself never moves. Calls on the same object
// serialise (per-object execution lock); calls on different objects run
// concurrently.
func (s *Store) Call(id ObjectID, method string, args any, argBytes int64) (any, error) {
	s.mu.Lock()
	e, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cls := s.classes[e.class]
	fn, ok := cls.Methods[method]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, e.class, method)
	}
	s.mu.Unlock()

	e.exec.Lock()
	newState, result, err := fn(e.state, args)
	if err != nil {
		e.exec.Unlock()
		return nil, fmt.Errorf("dataclay: %s.%s: %w", e.class, method, err)
	}
	e.state = newState
	e.exec.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.MethodCalls++
	if argBytes > 0 {
		s.stats.BytesShipped += argBytes
	}
	// Results are typically scalars/small aggregates; charge a nominal
	// size if the class cannot estimate it.
	s.stats.BytesShipped += sizeOf(cls, result)
	return result, nil
}

// Fetch retrieves the whole object state to the caller — the baseline E5
// compares against. The full object size is charged to BytesFetched.
func (s *Store) Fetch(id ObjectID) (any, error) {
	s.mu.Lock()
	e, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	cls := s.classes[e.class]
	s.mu.Unlock()

	e.exec.Lock()
	state := e.state
	e.exec.Unlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Fetches++
	s.stats.BytesFetched += sizeOf(cls, state)
	return state, nil
}

func sizeOf(c Class, state any) int64 {
	if c.Size == nil || state == nil {
		return 0
	}
	return c.Size(state)
}

// Stats returns a copy of the byte-flow counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Delete removes an object.
func (s *Store) Delete(id ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.objects, id)
	return nil
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}
