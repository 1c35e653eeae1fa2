package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/autoscale"
)

// TestQueuedSubmissionIsNeverStranded hammers the window between a
// submission's admission and its registration: under MaxInFlight 1 every
// submission but one is Queued, and a completion on another goroutine may
// promote it before engine.Add has seen its ID. That release used to find
// no task and vanish — the submission then registered held, forever, with
// its slot charged. A few closed-loop submitters keep the admission queue
// short, so the submission being promoted is, again and again, the one
// mid-Submit (more submitters lengthen the queue and hide the window).
// Every future must resolve and Barrier must return.
func TestQueuedSubmissionIsNeverStranded(t *testing.T) {
	const submitters, perSubmitter, deadline = 3, 1500, 20 * time.Second
	adm := autoscale.NewAdmission(autoscale.Quota{MaxInFlight: 1})
	rt := New(Config{Admission: adm}) // shut down only on success: a stranded task would hang Shutdown's Barrier
	if err := rt.Register(TaskDef{Name: "nop", Fn: func(context.Context, []any) ([]any, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	stranded := make(chan int, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			timeout := time.NewTimer(deadline)
			defer timeout.Stop()
			for i := 0; i < perSubmitter; i++ {
				var f *Future
				if i%2 == 0 {
					var err error
					if f, err = rt.Submit("nop"); err != nil {
						t.Error(err)
						return
					}
				} else {
					fs, err := rt.SubmitAll([]TaskReq{{Name: "nop"}})
					if err != nil {
						t.Error(err)
						return
					}
					f = fs[0]
				}
				resolved := make(chan struct{})
				go func() { f.Wait(); close(resolved) }()
				select {
				case <-resolved:
				case <-timeout.C:
					stranded <- g*perSubmitter + i
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case n := <-stranded:
		t.Fatalf("submission %d never ran: %+v, engine %+v", n, adm.Stats(), rt.EngineStats())
	default:
	}
	drained := make(chan struct{})
	go func() { rt.Barrier(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(deadline):
		t.Fatal("Barrier did not return")
	}
	if st := adm.Stats(); st.InFlight != 0 {
		t.Fatalf("%d slots still charged after the drain: %+v", st.InFlight, st)
	}
	rt.Shutdown()
}
