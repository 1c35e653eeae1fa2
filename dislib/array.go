package dislib

import (
	"fmt"

	"repro/compss"
)

// Array is a row-blocked distributed matrix: the ds-array of dislib. Each
// block is a compss Object, so operations on different blocks parallelise
// automatically.
type Array struct {
	lib    *Lib
	blocks []*compss.Object
	rows   int
	cols   int
}

// Rows returns the total row count.
func (a *Array) Rows() int { return a.rows }

// Cols returns the column count.
func (a *Array) Cols() int { return a.cols }

// NumBlocks returns the number of row blocks.
func (a *Array) NumBlocks() int { return len(a.blocks) }

// FromSlice distributes a dense matrix into blocks of rowsPerBlock rows.
func (l *Lib) FromSlice(data [][]float64, rowsPerBlock int) (*Array, error) {
	if len(data) == 0 || len(data[0]) == 0 {
		return nil, fmt.Errorf("%w: empty input", ErrDimension)
	}
	if rowsPerBlock <= 0 {
		rowsPerBlock = len(data)
	}
	cols := len(data[0])
	for i, row := range data {
		if len(row) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrDimension, i, len(row), cols)
		}
	}
	a := &Array{lib: l, rows: len(data), cols: cols}
	for start := 0; start < len(data); start += rowsPerBlock {
		end := start + rowsPerBlock
		if end > len(data) {
			end = len(data)
		}
		block := make(matrix, end-start)
		for i := start; i < end; i++ {
			block[i-start] = append([]float64(nil), data[i]...)
		}
		a.blocks = append(a.blocks, l.c.NewObjectWith(block))
	}
	return a, nil
}

// Sum returns the sum of all elements, computed as one task per block plus
// a commutative reduction.
func (a *Array) Sum() (float64, error) {
	parts := make([]*compss.Object, len(a.blocks))
	for i, b := range a.blocks {
		parts[i] = a.lib.c.NewObject()
		if _, err := a.lib.c.Call("dislib.rowSum", compss.Read(b), compss.Write(parts[i])); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, p := range parts {
		v, err := a.lib.c.WaitOn(p)
		if err != nil {
			return 0, err
		}
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("dislib: rowSum returned %T", v)
		}
		total += f
	}
	return total, nil
}
