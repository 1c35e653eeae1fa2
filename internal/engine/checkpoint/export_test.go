package checkpoint

import (
	"bytes"
	"encoding/gob"
)

// SetBaseQueued installs f as the hook run on the capturing goroutine for
// every save queued to be written as a snapshot file, and returns the
// call that removes it.
func SetBaseQueued(f func(seq int)) (restore func()) {
	old := baseQueued
	baseQueued = f
	return func() { baseQueued = old }
}

// EncodeSnapshot returns the bytes Store.Save writes for s as sequence
// number seq.
func EncodeSnapshot(s *Snapshot, seq int) ([]byte, error) {
	cp := *s
	cp.Seq = seq
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(cp.wire())
	return buf.Bytes(), err
}
