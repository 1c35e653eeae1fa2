package main

import (
	"encoding/json"
	"testing"
)

// Every demo function rejects input it cannot use instead of running on
// a zero value: a malformed, missing or negative sleep argument from an
// HTTP client is an error, like square's and montecarlo-pi's.
func TestDemoRegistryRejectsBadArguments(t *testing.T) {
	reg := demoRegistry()
	raw := func(args ...string) []json.RawMessage {
		out := make([]json.RawMessage, len(args))
		for i, a := range args {
			out[i] = json.RawMessage(a)
		}
		return out
	}
	for _, c := range []struct {
		fn   string
		args []json.RawMessage
	}{
		{"sleep", raw()},
		{"sleep", raw(`"ten"`)},
		{"sleep", raw(`-5`)},
		{"sleep", raw(`1.5`)},
		{"sleep", raw(`1`, `2`)},
		{"square", raw(`"x"`)},
		{"montecarlo-pi", raw(`0`)},
	} {
		fn, ok := reg.Lookup(c.fn)
		if !ok {
			t.Fatalf("%s not registered", c.fn)
		}
		if out, err := fn(c.args); err == nil {
			t.Errorf("%s(%s) = %s, want an error", c.fn, c.args, out)
		}
	}
	fn, _ := reg.Lookup("sleep")
	if out, err := fn(raw(`0`)); err != nil || string(out) != `"slept 0ms"` {
		t.Errorf("sleep(0) = %s, %v; want \"slept 0ms\"", out, err)
	}
}
