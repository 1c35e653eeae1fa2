package dislib

import (
	"fmt"
	"math"
	"math/rand"

	"repro/compss"
)

// KMeans is a distributed K-means estimator: every iteration spawns one
// partial-assignment task per block and a commutative merge, exactly the
// map+reduce structure dislib uses over PyCOMPSs.
type KMeans struct {
	lib *Lib
	// K is the number of clusters.
	K int
	// MaxIter bounds the Lloyd iterations (default 20).
	MaxIter int
	// Tol stops iteration when centers move less than this (default 1e-4).
	Tol float64
	// Seed makes initialisation deterministic.
	Seed int64
	// Centers holds the fitted cluster centers.
	Centers [][]float64
	// Iterations reports how many iterations Fit ran.
	Iterations int
}

// KMeans constructs an estimator bound to the library's runtime.
func (l *Lib) KMeans(k int, seed int64) *KMeans {
	return &KMeans{lib: l, K: k, MaxIter: 20, Tol: 1e-4, Seed: seed}
}

// Fit learns cluster centers from the array.
func (m *KMeans) Fit(a *Array) error {
	if m.K <= 0 || m.K > a.Rows() {
		return fmt.Errorf("%w: k=%d for %d rows", ErrDimension, m.K, a.Rows())
	}
	// Initialise centers from rows of the first block.
	first, err := m.lib.c.WaitOn(a.blocks[0])
	if err != nil {
		return err
	}
	block, err := asMatrix(first)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(m.Seed))
	centers := make(matrix, m.K)
	for i := range centers {
		src := block[rng.Intn(len(block))]
		centers[i] = append([]float64(nil), src...)
		// Break ties between duplicate picks deterministically.
		centers[i][0] += 1e-9 * float64(i)
	}

	for iter := 0; iter < m.MaxIter; iter++ {
		m.Iterations = iter + 1
		acc := m.lib.c.NewObjectWith(kmPartial{})
		for _, b := range a.blocks {
			part := m.lib.c.NewObject()
			if _, err := m.lib.c.Call("dislib.kmeansPartial",
				compss.Read(b), compss.In(centers), compss.Write(part)); err != nil {
				return err
			}
			if _, err := m.lib.c.Call("dislib.kmeansMerge",
				compss.Reduce(acc), compss.Read(part)); err != nil {
				return err
			}
		}
		v, err := m.lib.c.WaitOn(acc)
		if err != nil {
			return err
		}
		merged, ok := v.(kmPartial)
		if !ok {
			return fmt.Errorf("dislib: merge returned %T", v)
		}
		moved := 0.0
		next := make(matrix, m.K)
		for c := range next {
			next[c] = make([]float64, a.Cols())
			if merged.counts[c] == 0 {
				copy(next[c], centers[c]) // empty cluster keeps its center
				continue
			}
			for j := range next[c] {
				next[c][j] = merged.sums[c][j] / merged.counts[c]
				d := next[c][j] - centers[c][j]
				moved += d * d
			}
		}
		centers = next
		if math.Sqrt(moved) < m.Tol {
			break
		}
	}
	m.Centers = centers
	return nil
}

// Predict assigns each row of the array to its nearest fitted center,
// with one task per block.
func (m *KMeans) Predict(a *Array) ([]int, error) {
	if m.Centers == nil {
		return nil, ErrNotFitted
	}
	outs := make([]*compss.Object, len(a.blocks))
	for i, b := range a.blocks {
		outs[i] = m.lib.c.NewObject()
		if _, err := m.lib.c.Call("dislib.assign",
			compss.Read(b), compss.In(matrix(m.Centers)), compss.Write(outs[i])); err != nil {
			return nil, err
		}
	}
	var labels []int
	for _, o := range outs {
		v, err := m.lib.c.WaitOn(o)
		if err != nil {
			return nil, err
		}
		part, ok := v.([]int)
		if !ok {
			return nil, fmt.Errorf("dislib: assign returned %T", v)
		}
		labels = append(labels, part...)
	}
	return labels, nil
}
