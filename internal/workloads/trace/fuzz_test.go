package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the trace reader. Read must
// never panic; when it accepts an input, the parsed trace must satisfy
// Validate (Read promises a validated trace), and the canonical
// encoding must be a fixpoint: encoding the parsed trace and reading it
// back must succeed and re-encode to the identical bytes. That is the
// property the committed-trace workflow rests on — a trace file that
// survives one load/save cycle never drifts on later cycles.
func FuzzDecode(f *testing.F) {
	// Seed with the committed conformance trace and a generated one per
	// shape, so the fuzzer starts from structurally rich inputs, plus a
	// few handwritten near-misses around the header and record grammar.
	if b, err := os.ReadFile(filepath.Join("testdata", "conformance.trace")); err == nil {
		f.Add(b)
	}
	for _, shape := range []string{ShapePoissonBurst, ShapeDiurnal, ShapeHeavyTail} {
		gen := DefaultGen(shape)
		gen.Tasks = 50
		gen.Seed = 1
		if tr, err := Generate(gen); err == nil {
			f.Add(encode(tr))
		}
	}
	f.Add([]byte(`{"trace_version":1}` + "\n"))
	f.Add([]byte(`{"trace_version":1}` + "\n" + `{"id":1,"dur_ns":5}` + "\n"))
	f.Add([]byte(`{"trace_version":99}` + "\n"))
	f.Add([]byte(`{"trace_version":1}` + "\n" + `{"id":1,"dur_ns":-1}` + "\n"))
	f.Add([]byte(`{"trace_version":1}` + "\n" + `{"id":1,"reads":[7]}` + "\n" + `{"id":2,"writes":[{"data":7}]}` + "\n"))
	f.Add([]byte("\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted a trace Validate rejects: %v", err)
		}
		enc := encode(tr)
		tr2, err := Read(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading our own encoding failed: %v\nencoding:\n%s", err, enc)
		}
		if enc2 := encode(tr2); !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", enc, enc2)
		}
		if len(tr2.Tasks) != len(tr.Tasks) {
			t.Fatalf("round trip changed task count: %d -> %d", len(tr.Tasks), len(tr2.Tasks))
		}
	})
}
