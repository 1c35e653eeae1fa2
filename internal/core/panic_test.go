package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanickingBodyIsATaskFailure: a panic in user code fails that task
// (and poisons its dependents) like a returned error would; the runtime
// keeps serving.
func TestPanickingBodyIsATaskFailure(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	var attempts int32
	if err := rt.Register(TaskDef{Name: "explode", Retries: 1, Fn: func(_ context.Context, _ []any) ([]any, error) {
		atomic.AddInt32(&attempts, 1)
		panic("kaboom")
	}}); err != nil {
		t.Fatal(err)
	}
	x := rt.NewData()
	f1, err := rt.Submit("explode", Write(x))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := rt.Submit("inc", Update(x))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(); !errors.Is(err, ErrTaskPanic) {
		t.Fatalf("f1 err = %v, want ErrTaskPanic", err)
	}
	if n := atomic.LoadInt32(&attempts); n != 2 { // a panic is retried like any failure
		t.Fatalf("attempts = %d, want 2", n)
	}
	if _, err := f2.Wait(); !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("f2 err = %v, want ErrDependencyFailed", err)
	}

	y := rt.NewData()
	if _, err := rt.Submit("set", In(41), Write(y)); err != nil {
		t.Fatal(err)
	}
	f3, err := rt.Submit("inc", Update(y))
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := f3.Wait(); err != nil || vals[0] != 42 {
		t.Fatalf("submission after the panic: %v %v", vals, err)
	}
}

// TestPanickingCommutativeMemberReleasesMergeLocks: execute holds the
// group's merge locks across the body, so a panicking member must still
// release them or every later member blocks forever.
func TestPanickingCommutativeMemberReleasesMergeLocks(t *testing.T) {
	rt := newRT(t, Config{})
	registerArith(t, rt)
	var n int32
	if err := rt.Register(TaskDef{Name: "update", Fn: func(_ context.Context, args []any) ([]any, error) {
		if atomic.AddInt32(&n, 1) == 3 {
			panic("member 3")
		}
		return []any{args[0]}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	acc := rt.NewData()
	if _, err := rt.Submit("set", In(0), Write(acc)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.Submit("update", Reduce(acc)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { rt.Barrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commutative group deadlocked after a member panicked")
	}
	if _, err := rt.WaitOn(acc); !errors.Is(err, ErrTaskPanic) && !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("merged value err = %v, want the member's failure", err)
	}
}

// The recover wrapper sits on every task launch: it must cost nothing
// when the body returns normally.
func TestTaskFuncCallAllocFree(t *testing.T) {
	fn := TaskFunc(func(context.Context, []any) ([]any, error) { return nil, nil })
	ctx := context.Background()
	if a := testing.AllocsPerRun(100, func() { _, _ = fn.call(ctx, nil) }); a != 0 {
		t.Fatalf("TaskFunc.call allocates %.0f times on the success path", a)
	}
}
