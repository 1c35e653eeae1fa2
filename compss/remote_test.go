package compss

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/agent"
)

func remoteRegistry() *agent.Registry {
	reg := agent.NewRegistry()
	reg.Register("cube", func(args []json.RawMessage) (json.RawMessage, error) {
		var x float64
		if len(args) != 1 || json.Unmarshal(args[0], &x) != nil {
			return nil, errors.New("cube wants one number")
		}
		return json.Marshal(x * x * x)
	})
	reg.Register("concat", func(args []json.RawMessage) (json.RawMessage, error) {
		var parts []string
		for _, a := range args {
			var s string
			if err := json.Unmarshal(a, &s); err != nil {
				return nil, err
			}
			parts = append(parts, s)
		}
		return json.Marshal(strings.Join(parts, "-"))
	})
	return reg
}

func startAgents(t *testing.T, n int) []string {
	t.Helper()
	reg := remoteRegistry()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		a, err := agent.New(agent.Config{Registry: reg, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		urls[i] = a.URL()
	}
	return urls
}

func TestRemoteTaskRunsOnAgents(t *testing.T) {
	urls := startAgents(t, 2)
	c := newC(t)
	if err := c.RegisterRemoteTask("cube", urls); err != nil {
		t.Fatal(err)
	}
	out := c.NewObject()
	if _, err := c.Call("cube", In(3.0), Write(out)); err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitOn(out)
	if err != nil || got != 27.0 {
		t.Fatalf("remote cube = %v %v, want 27", got, err)
	}
}

func TestRemoteTaskChainsThroughDependencies(t *testing.T) {
	urls := startAgents(t, 2)
	c := newC(t)
	if err := c.RegisterRemoteTask("concat", urls); err != nil {
		t.Fatal(err)
	}
	a := c.NewObject()
	if _, err := c.Call("concat", In("x"), In("y"), Write(a)); err != nil {
		t.Fatal(err)
	}
	b := c.NewObject()
	// The second call reads the first's (remote-produced) value.
	if _, err := c.Call("concat", Read(a), In("z"), Write(b)); err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitOn(b)
	if err != nil || got != "x-y-z" {
		t.Fatalf("chained remote = %v %v", got, err)
	}
}

func TestRemoteTaskFailsOverWhenAgentDies(t *testing.T) {
	reg := remoteRegistry()
	dying, err := agent.New(agent.Config{Registry: reg, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := agent.New(agent.Config{Registry: reg, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(survivor.Close)

	c := newC(t)
	if err := c.RegisterRemoteTask("cube", []string{dying.URL(), survivor.URL()}); err != nil {
		t.Fatal(err)
	}
	dying.Close() // dies before the first call

	out := c.NewObject()
	if _, err := c.Call("cube", In(2.0), Write(out)); err != nil {
		t.Fatal(err)
	}
	got, err := c.WaitOn(out)
	if err != nil || got != 8.0 {
		t.Fatalf("failover cube = %v %v", got, err)
	}
}

func TestRemoteTaskReportsRemoteFailure(t *testing.T) {
	urls := startAgents(t, 1)
	c := newC(t)
	if err := c.RegisterRemoteTask("cube", urls); err != nil {
		t.Fatal(err)
	}
	out := c.NewObject()
	f, err := c.Call("cube", In("not a number"), Write(out))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(); err == nil || !strings.Contains(err.Error(), "cube wants one number") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterRemoteTaskValidation(t *testing.T) {
	c := newC(t)
	if err := c.RegisterRemoteTask("x", nil); err == nil {
		t.Fatal("no agents accepted")
	}
}
