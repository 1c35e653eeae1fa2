// Package dislib is a distributed machine-learning library parallelised
// with the compss task model — the Go counterpart of BSC's dislib ("our
// group is also doing developments on a distributed computing library
// (dislib) for machine learning which is internally parallelized with
// PyCOMPSs. The goal is to provide a simple and easy to use interface",
// paper Sec. VI-C).
//
// Data lives in Arrays: row-blocked distributed matrices whose blocks are
// compss Objects, so every operation on them is an asynchronous task and
// the runtime extracts the parallelism. Estimators follow the
// scikit-learn-style Fit/Predict shape the paper's HLA level calls for.
//
// The library keeps what a program here runs: FromSlice and Array.Sum
// (the HLA level of E12) and the KMeans estimator (examples/kmeans). The
// paper names no estimator, so none is kept that nothing calls.
package dislib

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/compss"
)

// Errors returned by the library.
var (
	// ErrDimension is returned for inconsistent shapes.
	ErrDimension = errors.New("dislib: dimension mismatch")
	// ErrNotFitted is returned by Predict before Fit.
	ErrNotFitted = errors.New("dislib: estimator not fitted")
)

// Lib binds dislib to a compss runtime and registers its task library.
type Lib struct {
	c *compss.COMPSs
}

// matrix is the block payload.
type matrix [][]float64

// kmPartial accumulates per-cluster sums and counts.
type kmPartial struct {
	sums   matrix
	counts []float64
}

// New registers the dislib task library on a runtime.
func New(c *compss.COMPSs) (*Lib, error) {
	l := &Lib{c: c}
	tasks := map[string]compss.TaskFunc{
		"dislib.kmeansPartial": taskKMeansPartial,
		"dislib.kmeansMerge":   taskKMeansMerge,
		"dislib.assign":        taskAssign,
		"dislib.rowSum":        taskRowSum,
	}
	for name, fn := range tasks {
		if err := c.RegisterTask(name, fn); err != nil {
			return nil, fmt.Errorf("dislib: register %s: %w", name, err)
		}
	}
	return l, nil
}

// --- task bodies ---

func asMatrix(v any) (matrix, error) {
	m, ok := v.(matrix)
	if !ok {
		return nil, fmt.Errorf("dislib: want matrix block, got %T", v)
	}
	return m, nil
}

func taskKMeansPartial(_ context.Context, args []any) ([]any, error) {
	block, err := asMatrix(args[0])
	if err != nil {
		return nil, err
	}
	centers, err := asMatrix(args[1])
	if err != nil {
		return nil, err
	}
	k := len(centers)
	if k == 0 {
		return nil, errors.New("kmeansPartial: no centers")
	}
	dim := len(centers[0])
	p := kmPartial{sums: zeros(k, dim), counts: make([]float64, k)}
	for _, row := range block {
		c := nearest(row, centers)
		for j, v := range row {
			p.sums[c][j] += v
		}
		p.counts[c]++
	}
	return []any{p}, nil
}

func taskKMeansMerge(_ context.Context, args []any) ([]any, error) {
	acc, aok := args[0].(kmPartial)
	add, bok := args[1].(kmPartial)
	if !bok {
		return nil, errors.New("kmeansMerge: want partial")
	}
	if !aok || acc.sums == nil { // first merge into the zero accumulator
		return []any{add}, nil
	}
	for i := range add.sums {
		for j := range add.sums[i] {
			acc.sums[i][j] += add.sums[i][j]
		}
		acc.counts[i] += add.counts[i]
	}
	return []any{acc}, nil
}

func taskAssign(_ context.Context, args []any) ([]any, error) {
	block, err := asMatrix(args[0])
	if err != nil {
		return nil, err
	}
	centers, err := asMatrix(args[1])
	if err != nil {
		return nil, err
	}
	out := make([]int, len(block))
	for i, row := range block {
		out[i] = nearest(row, centers)
	}
	return []any{out}, nil
}

func taskRowSum(_ context.Context, args []any) ([]any, error) {
	block, err := asMatrix(args[0])
	if err != nil {
		return nil, err
	}
	var s float64
	for _, row := range block {
		for _, v := range row {
			s += v
		}
	}
	return []any{s}, nil
}

// --- helpers ---

func zeros(r, c int) matrix {
	m := make(matrix, r)
	for i := range m {
		m[i] = make([]float64, c)
	}
	return m
}

func nearest(row []float64, centers matrix) int {
	best, bestD := 0, math.Inf(1)
	for c, center := range centers {
		d := 0.0
		for j := range center {
			diff := row[j] - center[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
