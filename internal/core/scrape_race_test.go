package core

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/obsv"
)

// TestScrapeDuringRun scrapes a live runtime's registry from two
// goroutines, one through Visit and one through WritePrometheus, while a
// SubmitAll DAG runs behind an admission quota. The engine's and the
// admission controller's series are read under their owners' locks at
// scrape time, so the race detector sees every read the scrapes make, and
// after the Barrier the scraped totals are the engine's own books.
func TestScrapeDuringRun(t *testing.T) {
	const chains, layers = 16, 100
	reg := obsv.NewRegistry()
	rt := newRT(t, Config{Metrics: reg, Admission: autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 8})})
	if err := rt.Register(TaskDef{Name: "inc", Fn: func(_ context.Context, args []any) ([]any, error) {
		v, _ := args[0].(int)
		return []any{v + 1}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Visit(func(string, float64) {})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	handles := make([]*Handle, chains)
	for c := range handles {
		handles[c] = rt.NewData()
		rt.SetInitial(handles[c], 0)
	}
	reqs := make([]TaskReq, 0, chains*layers)
	for i := 0; i < chains*layers; i++ {
		reqs = append(reqs, TaskReq{Name: "inc", Params: []Param{Update(handles[i%chains])}})
	}
	if _, err := rt.SubmitAll(reqs); err != nil {
		t.Fatal(err)
	}
	rt.Barrier()
	close(stop)
	wg.Wait()

	vals := map[string]float64{}
	reg.Visit(func(name string, v float64) { vals[name] = v })
	st := rt.EngineStats()
	if st.Launched != chains*layers {
		t.Fatalf("engine launched %d tasks, want %d", st.Launched, chains*layers)
	}
	if got := vals["flowgo_tasks_launched_total"]; got != float64(st.Launched) {
		t.Errorf("scraped launched %v, engine %d", got, st.Launched)
	}
	if got := vals["flowgo_tasks_completed_total"]; got != float64(st.Completed) {
		t.Errorf("scraped completed %v, engine %d", got, st.Completed)
	}
	if got := vals["flowgo_admission_in_flight"]; got != 0 {
		t.Errorf("scraped admission in-flight %v after the Barrier, want 0", got)
	}
	for name, v := range vals {
		if strings.HasPrefix(name, "flowgo_ready_depth") && v != 0 {
			t.Errorf("%s = %v after the Barrier, want 0", name, v)
		}
	}
}
