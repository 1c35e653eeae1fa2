package dislib

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/compss"
)

func newLib(t *testing.T) *Lib {
	t.Helper()
	c := compss.New(compss.WithNodes(
		compss.NodeSpec{Name: "a", Cores: 4},
		compss.NodeSpec{Name: "b", Cores: 4},
	))
	t.Cleanup(c.Shutdown)
	l, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFromSliceAndCollectRoundTrip(t *testing.T) {
	l := newLib(t)
	data := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}
	a, err := l.FromSlice(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() != 3 || a.Rows() != 5 || a.Cols() != 2 {
		t.Fatalf("shape: %d blocks %dx%d", a.NumBlocks(), a.Rows(), a.Cols())
	}
	// Collect the blocks back: two full blocks of 2 rows, then the short
	// last block of 1, in row order.
	var back [][]float64
	for i, b := range a.blocks {
		v, err := l.c.WaitOn(b)
		if err != nil {
			t.Fatal(err)
		}
		block, err := asMatrix(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{2, 2, 1}[i]; len(block) != want {
			t.Fatalf("block %d has %d rows, want %d", i, len(block), want)
		}
		back = append(back, block...)
	}
	if !reflect.DeepEqual(back, data) {
		t.Fatalf("round trip = %v, want %v", back, data)
	}
	// The blocks are copies: editing the input afterwards changes nothing.
	data[0][0] = -1
	if s, err := a.Sum(); err != nil || s != 55 {
		t.Fatalf("Sum after editing the input = %v %v, want 55", s, err)
	}
}

func TestFromSliceValidation(t *testing.T) {
	l := newLib(t)
	if _, err := l.FromSlice(nil, 1); !errors.Is(err, ErrDimension) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := l.FromSlice([][]float64{{1, 2}, {3}}, 1); !errors.Is(err, ErrDimension) {
		t.Fatalf("ragged: %v", err)
	}
}

func TestSum(t *testing.T) {
	l := newLib(t)
	a, err := l.FromSlice([][]float64{{1, 2}, {3, 4}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Sum()
	if err != nil || s != 10 {
		t.Fatalf("Sum = %v %v, want 10", s, err)
	}
}

// twoBlobs builds two well-separated Gaussian blobs.
func twoBlobs(n int) [][]float64 {
	data := make([][]float64, 0, 2*n)
	for i := 0; i < n; i++ {
		f := float64(i%7) * 0.01
		data = append(data, []float64{0 + f, 0 - f})
		data = append(data, []float64{10 - f, 10 + f})
	}
	return data
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	l := newLib(t)
	a, err := l.FromSlice(twoBlobs(50), 16)
	if err != nil {
		t.Fatal(err)
	}
	km := l.KMeans(2, 7)
	if err := km.Fit(a); err != nil {
		t.Fatal(err)
	}
	if len(km.Centers) != 2 {
		t.Fatalf("centers = %v", km.Centers)
	}
	// One center near (0,0), the other near (10,10), in some order.
	d00 := math.Hypot(km.Centers[0][0], km.Centers[0][1])
	d01 := math.Hypot(km.Centers[0][0]-10, km.Centers[0][1]-10)
	near0 := 0
	if d01 < d00 {
		near0 = 1
	}
	other := 1 - near0
	if math.Hypot(km.Centers[near0][0], km.Centers[near0][1]) > 1 {
		t.Fatalf("no center near origin: %v", km.Centers)
	}
	if math.Hypot(km.Centers[other][0]-10, km.Centers[other][1]-10) > 1 {
		t.Fatalf("no center near (10,10): %v", km.Centers)
	}

	labels, err := km.Predict(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != a.Rows() {
		t.Fatalf("labels = %d, want %d", len(labels), a.Rows())
	}
	// All even rows (blob 0) share a label; all odd rows the other.
	for i := 2; i < len(labels); i += 2 {
		if labels[i] != labels[0] {
			t.Fatal("blob 0 split across clusters")
		}
	}
	for i := 3; i < len(labels); i += 2 {
		if labels[i] != labels[1] {
			t.Fatal("blob 1 split across clusters")
		}
	}
	if labels[0] == labels[1] {
		t.Fatal("blobs merged into one cluster")
	}
}

func TestKMeansValidation(t *testing.T) {
	l := newLib(t)
	a, _ := l.FromSlice([][]float64{{1}, {2}}, 1)
	km := l.KMeans(5, 1)
	if err := km.Fit(a); !errors.Is(err, ErrDimension) {
		t.Fatalf("k>rows: %v", err)
	}
	if _, err := km.Predict(a); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("predict unfitted: %v", err)
	}
}
