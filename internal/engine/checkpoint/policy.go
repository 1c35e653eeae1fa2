package checkpoint

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Mode selects when snapshots are taken.
type Mode int

// Checkpoint modes.
const (
	// ModeOff disables snapshots.
	ModeOff Mode = iota
	// ModeInterval snapshots every Policy.Every of backend time — virtual
	// time on the simulator, wall time live (Checkpointer.Tick).
	ModeInterval
	// ModeEveryN snapshots after every Policy.N task completions.
	ModeEveryN
	// ModeOnDrain snapshots whenever the backend reports that all
	// submitted work has finished — the simulator's end of run, every
	// live Barrier — and skips a drain that changed nothing.
	ModeOnDrain
)

// Policy decides when the checkpointer snapshots.
type Policy struct {
	// Mode selects the trigger; the zero value is ModeOff.
	Mode Mode
	// Every is the ModeInterval period.
	Every time.Duration
	// N is the ModeEveryN completion count.
	N int
}

// Off returns the disabled policy.
func Off() Policy { return Policy{} }

// Interval snapshots every d of backend time.
func Interval(d time.Duration) Policy { return Policy{Mode: ModeInterval, Every: d} }

// EveryN snapshots after every n task completions.
func EveryN(n int) Policy { return Policy{Mode: ModeEveryN, N: n} }

// OnDrain snapshots when the run drains.
func OnDrain() Policy { return Policy{Mode: ModeOnDrain} }

// String returns the policy in the CLI grammar ParsePolicy reads.
func (p Policy) String() string {
	switch p.Mode {
	case ModeInterval:
		return "interval:" + p.Every.String()
	case ModeEveryN:
		return "every:" + strconv.Itoa(p.N)
	case ModeOnDrain:
		return "on-drain"
	default:
		return "off"
	}
}

// ParsePolicy reads the CLI grammar: "off", "interval:<duration>",
// "every:<n>" or "on-drain" (cmd/flowgo-sim's -checkpoint flag).
func ParsePolicy(s string) (Policy, error) {
	switch {
	case s == "" || s == "off":
		return Off(), nil
	case s == "on-drain":
		return OnDrain(), nil
	case strings.HasPrefix(s, "interval:"):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval:"))
		if err != nil || d <= 0 {
			return Policy{}, fmt.Errorf("checkpoint: bad interval %q", s)
		}
		return Interval(d), nil
	case strings.HasPrefix(s, "every:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "every:"))
		if err != nil || n <= 0 {
			return Policy{}, fmt.Errorf("checkpoint: bad completion count %q", s)
		}
		return EveryN(n), nil
	default:
		return Policy{}, fmt.Errorf("checkpoint: unknown policy %q (want off | interval:<d> | every:<n> | on-drain)", s)
	}
}
