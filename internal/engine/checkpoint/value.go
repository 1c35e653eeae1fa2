// Value encoding for the live backend's catalog. The simulator's tasks
// have durations, not values, so its snapshots carry a location catalog
// only; the live runtime must additionally persist the concrete Go
// values completed tasks produced, or restored futures would have
// nothing to resolve to. Values are gob-encoded through an interface
// box, which means the concrete type must be registered — common
// scalar, slice and map types are pre-registered, applications with
// richer result types call gob.Register once at start-up. A value whose
// type is not registered is simply not checkpointed: its producing task
// re-runs on restore, trading work for correctness.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"time"
)

// box wraps a value so gob records the concrete type of the interface.
type box struct {
	V any
}

func init() {
	for _, v := range []any{
		int(0), int8(0), int16(0), int32(0), int64(0),
		uint(0), uint8(0), uint16(0), uint32(0), uint64(0),
		float32(0), float64(0), false, "",
		[]byte(nil), []int(nil), []int64(nil), []float64(nil), []string(nil),
		[]any(nil), map[string]any(nil), map[string]int(nil),
		map[string]float64(nil), map[string]string(nil),
		time.Duration(0),
	} {
		gob.Register(v)
	}
}

// EncodeValue serialises a produced value for the snapshot catalog. It
// reports false — not an error — for values the codec cannot represent
// (unregistered concrete types, channels, functions): the producing
// task will re-run on restore instead.
func EncodeValue(v any) ([]byte, bool) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(box{V: v}); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// DecodeValue deserialises a catalog value. It reports false for bytes
// that do not decode (e.g. a type registered when the snapshot was
// written but not in this process).
func DecodeValue(b []byte) (any, bool) {
	var bx box
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&bx); err != nil {
		return nil, false
	}
	return bx.V, true
}
