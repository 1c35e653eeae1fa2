package dataclay

import (
	"errors"
	"sync"
	"testing"
)

// vectorClass registers a []float64 class with sum/append methods.
func vectorClass() Class {
	return Class{
		Name: "vector",
		Methods: map[string]Method{
			"sum": func(state, _ any) (any, any, error) {
				v, ok := state.([]float64)
				if !ok {
					return state, nil, errors.New("bad state")
				}
				s := 0.0
				for _, x := range v {
					s += x
				}
				return state, s, nil
			},
			"append": func(state, args any) (any, any, error) {
				v, _ := state.([]float64)
				x, ok := args.(float64)
				if !ok {
					return state, nil, errors.New("bad args")
				}
				return append(v, x), len(v) + 1, nil
			},
		},
		Size: func(state any) int64 {
			v, _ := state.([]float64)
			return int64(8 * len(v))
		},
	}
}

func newStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	s.RegisterClass(vectorClass())
	return s
}

func TestNewObjectRequiresClass(t *testing.T) {
	s := newStore(t)
	if _, err := s.NewObject("ghost", nil); !errors.Is(err, ErrUnknownClass) {
		t.Fatalf("err = %v, want ErrUnknownClass", err)
	}
}

func TestCallExecutesInStore(t *testing.T) {
	s := newStore(t)
	id, _ := s.NewObject("vector", []float64{1, 2, 3})
	res, err := s.Call(id, "sum", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res != 6.0 {
		t.Fatalf("sum = %v, want 6", res)
	}
	// State mutation through a method persists.
	if _, err := s.Call(id, "append", 4.0, 8); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Call(id, "sum", nil, 0)
	if res != 10.0 {
		t.Fatalf("sum after append = %v, want 10", res)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	s := newStore(t)
	id, _ := s.NewObject("vector", []float64{})
	if _, err := s.Call(id, "nope", nil, 0); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
	if _, err := s.Call("missing", "sum", nil, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestMethodShippingMovesFewerBytesThanFetch(t *testing.T) {
	s := newStore(t)
	big := make([]float64, 1<<20) // 8 MB object
	id, _ := s.NewObject("vector", big)

	// In-store execution: tiny argument, scalar result.
	if _, err := s.Call(id, "sum", nil, 16); err != nil {
		t.Fatal(err)
	}
	shipped := s.Stats().BytesShipped

	// Fetch-then-compute: whole object moves.
	if _, err := s.Fetch(id); err != nil {
		t.Fatal(err)
	}
	fetched := s.Stats().BytesFetched

	if st := s.Stats(); st.MethodCalls != 1 || st.Fetches != 1 {
		t.Fatalf("stats = %+v, want one call and one fetch", st)
	}
	if fetched != 8<<20 {
		t.Fatalf("fetched = %d, want 8MiB", fetched)
	}
	if shipped*100 > fetched {
		t.Fatalf("method shipping moved %d bytes vs fetch %d: should be ≥100x smaller", shipped, fetched)
	}
}

func TestDeleteRemovesObject(t *testing.T) {
	s := newStore(t)
	id, _ := s.NewObject("vector", []float64{1})
	if len(s.objects) != 1 {
		t.Fatalf("Len = %d, want 1", len(s.objects))
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if len(s.objects) != 0 {
		t.Fatalf("Len after delete = %d, want 0", len(s.objects))
	}
	if _, err := s.Fetch(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second delete = %v, want ErrNotFound", err)
	}
}

func TestConcurrentCallsOnOneObjectAreSerialised(t *testing.T) {
	s := newStore(t)
	id, _ := s.NewObject("vector", []float64{})
	const (
		workers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if _, err := s.Call(id, "append", 1.0, 8); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Call(id, "sum", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every append must have landed: lost updates would show here.
	if res != float64(workers*perW) {
		t.Fatalf("sum = %v, want %d (lost updates)", res, workers*perW)
	}
}

func TestConcurrentCallsAndFetches(t *testing.T) {
	s := newStore(t)
	id, _ := s.NewObject("vector", []float64{1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, _ = s.Call(id, "append", 1.0, 8)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := s.Fetch(id); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
