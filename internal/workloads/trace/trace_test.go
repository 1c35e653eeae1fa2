package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// sample builds a small hand-written trace covering every field.
func sample() *Trace {
	return &Trace{
		Header: Header{Version: FormatVersion, Name: "sample", Shape: ShapePoissonBurst, Seed: 9},
		Tasks: []Record{
			{ID: 1, SubmitNS: 0, Class: "ingest", Tenant: "a", EstNS: 1e9, DurNS: 2e9,
				Cores: 2, MemMB: 4096, Tier: "cloud",
				Writes: []WriteRef{{Data: 1, Bytes: 1 << 20}}},
			{ID: 2, SubmitNS: 5e8, Class: "train", Tenant: "b", DurNS: 3e9,
				Reads: []int64{1}, Writes: []WriteRef{{Data: 2}}},
			{ID: 3, SubmitNS: 5e8, Class: "eval", Tenant: "a", DurNS: 1e9,
				Reads: []int64{1, 2}},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	orig := sample()
	enc := encode(orig)
	got, err := Read(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	re := encode(got)
	if !bytes.Equal(enc, re) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", enc, re)
	}
	if got.Tasks[0].Constraints().Cores != 2 || got.Tasks[0].Constraints().Signature() == "-" {
		t.Fatalf("constraints lost in round trip: %+v", got.Tasks[0].Constraints())
	}
	if got.Tasks[1].Submit() != 500*time.Millisecond || got.Tasks[1].Duration() != 3*time.Second {
		t.Fatalf("times lost: %+v", got.Tasks[1])
	}
}

// TestCodecGoldenConformance pins the committed conformance trace: it
// must parse, re-encode to the exact committed bytes (the determinism
// the replay suite relies on), and keep its shape.
func TestCodecGoldenConformance(t *testing.T) {
	tr := Conformance()
	if len(tr.Tasks) != 18 {
		t.Fatalf("conformance trace has %d tasks, want 18", len(tr.Tasks))
	}
	if got := encode(tr); !bytes.Equal(got, conformanceRaw) {
		t.Fatal("re-encoding the committed conformance trace changed its bytes")
	}
	if got := tenants(tr); len(got) != 2 {
		t.Fatalf("conformance tenants = %v, want 2", got)
	}
	if tr.Span() >= time.Second {
		t.Fatalf("conformance span %v must stay under the 1s conformance gate", tr.Span())
	}
}

// TestCodecUnknownFields: a trace written by a future minor revision
// (extra fields, same version) still reads.
func TestCodecUnknownFields(t *testing.T) {
	in := `{"trace_version":1,"name":"x","future_header_field":true}
{"id":1,"submit_ns":0,"dur_ns":5,"gpu_model":"h100","carbon_g":0.3}
`
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("unknown fields must be tolerated: %v", err)
	}
	if len(tr.Tasks) != 1 || tr.Tasks[0].DurNS != 5 {
		t.Fatalf("parsed %+v", tr.Tasks)
	}
}

// TestCodecCorruptLine: a malformed line fails with its line number.
func TestCodecCorruptLine(t *testing.T) {
	in := `{"trace_version":1}
{"id":1,"submit_ns":0,"dur_ns":5}
{"id":2,"submit_ns":oops}
`
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("corrupt line accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not carry the line number: %v", err)
	}
}

func TestCodecVersionGate(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"trace_version":99}` + "\n")); err == nil {
		t.Fatal("future format version accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	dup := sample()
	dup.Tasks[2].ID = 1
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id not rejected: %v", err)
	}
	late := sample()
	// Task 1 now reads datum 2, whose writer (task 2) comes later.
	late.Tasks[0].Reads = []int64{2}
	if err := late.Validate(); err == nil || !strings.Contains(err.Error(), "later") {
		t.Fatalf("read-before-write not rejected: %v", err)
	}
	neg := sample()
	neg.Tasks[1].SubmitNS = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative offset not rejected")
	}
}

// TestSpecsConversion: reads/writes become accesses, offsets become
// Release instants, sizes land in OutputBytes.
func TestSpecsConversion(t *testing.T) {
	specs := sample().Specs()
	if len(specs) != 3 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[1].Release != 500*time.Millisecond {
		t.Fatalf("release = %v", specs[1].Release)
	}
	if len(specs[2].Accesses) != 2 {
		t.Fatalf("accesses = %+v", specs[2].Accesses)
	}
	if specs[0].OutputBytes[1] != 1<<20 {
		t.Fatalf("output bytes = %+v", specs[0].OutputBytes)
	}
	if specs[0].Constraints.MemoryMB != 4096 {
		t.Fatalf("constraints = %+v", specs[0].Constraints)
	}
}

// encode is the trace's canonical byte encoding: what Write produces.
func encode(tr *Trace) []byte {
	var buf bytes.Buffer
	_ = tr.Write(&buf) // bytes.Buffer cannot fail
	return buf.Bytes()
}

// tenants lists the trace's distinct tenant tags in first-appearance
// order (untagged records contribute "").
func tenants(tr *Trace) []string {
	var out []string
	for _, r := range tr.Tasks {
		if !slices.Contains(out, r.Tenant) {
			out = append(out, r.Tenant)
		}
	}
	return out
}
