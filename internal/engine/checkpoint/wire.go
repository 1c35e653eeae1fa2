// The Format 4 wire form: what Store writes and reads, one private struct
// for a base and one for a log frame's payload, laid out in columns. A
// catalog is a node table plus parallel key, size and holder-count
// columns, one flat column of node indices, and the rows that carry a
// value with their bytes; task records are ID, epoch and output-count
// columns plus one flat output column. gob moves a column of scalars in
// one piece, so the codec's work is per column, not per row, and decoding
// carves every row's Locations, Outputs and Value out of one backing
// array per column — each a clipped sub-slice (a[i:j:j]), so an append to
// one row can never write into the next. A file costs O(columns)
// allocations whatever its row count. Neither struct holds the engine's
// activity counters: a restore never reads them.
//
// The digest in a file's name proves the bytes are the ones written, not
// that they make sense, so decoding checks that the columns agree before
// it carves: equal lengths, catalog keys strictly ascending (the order
// bases and coalesced groups are written in, which the fold relies on),
// counts non-negative and summing to their flat column, node indices
// inside the node table, value rows inside the catalog, strictly
// increasing and each with bytes, and every task a base's sections name in
// its Order. A base that fails any check is ErrCorrupt, and a frame that
// does ends its log's valid prefix; none can make the decoder panic.
package checkpoint

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/deps"
	"repro/internal/engine"
)

// errColumns is the one decode failure of a file whose columns disagree;
// read wraps it in ErrCorrupt with the file's name.
var errColumns = errors.New("columns disagree")

// wireSnapshot is a Snapshot on disk: the format it is written in, its
// records filed into four sections by sectionOf, and Order, every ID in
// registration order — the interleaving the sections lose. A record that
// is not Restorable keeps only its ID and section.
type wireSnapshot struct {
	Format    int
	Seq       int
	At        time.Duration
	Completed wireTasks
	Ready     []int64
	Running   []int64
	Pending   []int64
	Catalog   wireCatalog
	Order     []int64
}

// wireDelta is a log frame's payload: a coalesced Delta and the sequence
// number the store gave it. Its records are task records plus the two
// columns a frame adds, State and Completed.
type wireDelta struct {
	Seq       int
	At        time.Duration
	Tasks     wireTasks
	States    []engine.State
	Completed []bool
	Catalog   wireCatalog
}

// wireTasks is a list of task records in columns: row i is IDs[i] with
// epoch Epochs[i] and the next Counts[i] versions of Outputs.
type wireTasks struct {
	IDs     []int64
	Epochs  []int
	Counts  []int
	Outputs []deps.Version
}

// wireCatalog is a catalog in columns: row i is Keys[i] of size Sizes[i],
// held by the next Holders[i] nodes of Locs, each an index into Nodes
// (in first-use order). ValueRows lists, ascending, the rows that carry a
// value; the value of the j-th is the next ValueLens[j] bytes of Values.
type wireCatalog struct {
	Nodes     []string
	Keys      []deps.Version
	Sizes     []int64
	Holders   []int
	Locs      []int
	ValueRows []int
	ValueLens []int
	Values    []byte
}

// sectionOf names the section a record is filed in by that section's
// state: Done for the completed one, Ready, Running, Pending for the rest.
func sectionOf(t engine.TaskSnap) engine.State {
	switch {
	case t.Restorable():
		return engine.Done
	case t.State == engine.Ready, t.State == engine.Running:
		return t.State
	}
	return engine.Pending
}

func (s *Snapshot) wire() *wireSnapshot {
	w := &wireSnapshot{
		Format: Format, Seq: s.Seq, At: s.At,
		Catalog: wireCatalogOf(s.Catalog), Order: sized[int64](len(s.Tasks)),
	}
	var count [engine.Done + 1]int
	for _, t := range s.Tasks {
		count[sectionOf(t)]++
	}
	var ids [engine.Done + 1][]int64
	for section := range ids {
		ids[section] = sized[int64](count[section])
	}
	for _, t := range s.Tasks {
		w.Order = append(w.Order, t.ID)
		if section := sectionOf(t); section != engine.Done {
			ids[section] = append(ids[section], t.ID)
		}
	}
	w.Ready, w.Running, w.Pending = ids[engine.Ready], ids[engine.Running], ids[engine.Pending]
	w.Completed = wireTasksOf(s.Tasks, count[engine.Done], engine.TaskSnap.Restorable)
	return w
}

func (d *Delta) wire(seq int) *wireDelta {
	w := &wireDelta{
		Seq: seq, At: d.At,
		States: sized[engine.State](len(d.Tasks)), Completed: sized[bool](len(d.Tasks)),
		Catalog: wireCatalogOf(d.Catalog),
	}
	w.Tasks = wireTasksOf(d.Tasks, len(d.Tasks), func(engine.TaskSnap) bool { return true })
	for _, t := range d.Tasks {
		w.States = append(w.States, t.State)
		w.Completed = append(w.Completed, t.Completed)
	}
	return w
}

// snapshot rebuilds the records: every ID of Order pending, then each
// section's records filed over their own. A section naming an ID Order
// lacks means the columns disagree.
func (w *wireSnapshot) snapshot() (*Snapshot, error) {
	s := &Snapshot{Seq: w.Seq, At: w.At}
	if _, err := w.Completed.rows(); err != nil {
		return nil, err
	}
	m := merger{tasks: sized[engine.TaskSnap](len(w.Order))}
	for _, id := range w.Order {
		m.put(engine.TaskSnap{ID: id, State: engine.Pending})
	}
	var stray error
	file := func(t engine.TaskSnap) {
		if i, ok := m.find(t.ID); ok {
			m.tasks[i] = t
		} else if stray == nil {
			stray = fmt.Errorf("%w: task %d is filed in a section but not in the order", errColumns, t.ID)
		}
	}
	w.Completed.each(func(id int64, epoch int, outputs []deps.Version) {
		file(engine.TaskSnap{ID: id, State: engine.Done, Epoch: epoch, Completed: true, OutputKeys: outputs})
	})
	for _, section := range []struct {
		ids   []int64
		state engine.State
	}{{w.Ready, engine.Ready}, {w.Running, engine.Running}, {w.Pending, engine.Pending}} {
		for _, id := range section.ids {
			file(engine.TaskSnap{ID: id, State: section.state})
		}
	}
	if stray != nil {
		return nil, stray
	}
	s.Tasks = m.tasks
	var err error
	if s.Catalog, err = w.Catalog.entries(); err != nil {
		return nil, err
	}
	return s, nil
}

func (w *wireDelta) delta() (*Delta, error) {
	d := &Delta{At: w.At}
	n, err := w.Tasks.rows()
	if err != nil {
		return nil, err
	}
	if len(w.States) != n || len(w.Completed) != n {
		return nil, fmt.Errorf("%w: %d task records, %d states, %d completed flags", errColumns, n, len(w.States), len(w.Completed))
	}
	d.Tasks = sized[engine.TaskSnap](n)
	w.Tasks.each(func(id int64, epoch int, outputs []deps.Version) {
		i := len(d.Tasks)
		d.Tasks = append(d.Tasks, engine.TaskSnap{ID: id, State: w.States[i], Epoch: epoch, Completed: w.Completed[i], OutputKeys: outputs})
	})
	if d.Catalog, err = w.Catalog.entries(); err != nil {
		return nil, err
	}
	return d, nil
}

// wireTasksOf lays the n records of tasks that keep admits out in
// columns, the outputs concatenated in record order.
func wireTasksOf(tasks []engine.TaskSnap, n int, keep func(engine.TaskSnap) bool) wireTasks {
	w := wireTasks{IDs: sized[int64](n), Epochs: sized[int](n), Counts: sized[int](n)}
	flat := 0
	for _, t := range tasks {
		if keep(t) {
			flat += len(t.OutputKeys)
		}
	}
	w.Outputs = sized[deps.Version](flat)
	for _, t := range tasks {
		if keep(t) {
			w.IDs = append(w.IDs, t.ID)
			w.Epochs = append(w.Epochs, t.Epoch)
			w.Counts = append(w.Counts, len(t.OutputKeys))
			w.Outputs = append(w.Outputs, t.OutputKeys...)
		}
	}
	return w
}

// rows checks the columns agree and returns the record count.
func (w *wireTasks) rows() (int, error) {
	n := len(w.IDs)
	if len(w.Epochs) != n || len(w.Counts) != n {
		return 0, fmt.Errorf("%w: %d task IDs, %d epochs, %d output counts", errColumns, n, len(w.Epochs), len(w.Counts))
	}
	if err := counted(w.Counts, len(w.Outputs), "outputs"); err != nil {
		return 0, err
	}
	return n, nil
}

// each visits the records of a checked wireTasks in order, handing each
// its clipped slice of the output column (nil for none).
func (w *wireTasks) each(fn func(id int64, epoch int, outputs []deps.Version)) {
	at := 0
	for i, id := range w.IDs {
		fn(id, w.Epochs[i], carve(w.Outputs, &at, w.Counts[i]))
	}
}

// counted checks that counts are non-negative and sum to flat, the
// length of the column they divide.
func counted(counts []int, flat int, what string) error {
	left := flat
	for _, c := range counts {
		if c < 0 || c > left {
			return fmt.Errorf("%w: %d %s counted over a column of %d", errColumns, c, what, flat)
		}
		left -= c
	}
	if left != 0 {
		return fmt.Errorf("%w: counts leave %d of %d %s over", errColumns, left, flat, what)
	}
	return nil
}

// carve returns the next n elements of col from *at, clipped, and
// advances *at; nil for none, as gob decodes an empty list.
func carve[T any](col []T, at *int, n int) []T {
	if n == 0 {
		return nil
	}
	i := *at
	*at += n
	return col[i : i+n : i+n]
}

// wireCatalogOf lays catalog rows out in columns, a row's value only when
// it has one.
func wireCatalogOf(rows []CatalogEntry) wireCatalog {
	n := len(rows)
	w := wireCatalog{Keys: sized[deps.Version](n), Sizes: sized[int64](n), Holders: sized[int](n)}
	flat, values, valueBytes := 0, 0, 0
	for i := range rows {
		flat += len(rows[i].Locations)
		if len(rows[i].Value) > 0 {
			values++
			valueBytes += len(rows[i].Value)
		}
	}
	w.Locs = sized[int](flat)
	w.ValueRows, w.ValueLens, w.Values = sized[int](values), sized[int](values), sized[byte](valueBytes)
	index := make(map[string]int)
	for i := range rows {
		en := &rows[i]
		w.Keys = append(w.Keys, en.Key)
		w.Sizes = append(w.Sizes, en.Size)
		w.Holders = append(w.Holders, len(en.Locations))
		for _, loc := range en.Locations {
			at, ok := index[loc]
			if !ok {
				at = len(w.Nodes)
				index[loc] = at
				w.Nodes = append(w.Nodes, loc)
			}
			w.Locs = append(w.Locs, at)
		}
		if len(en.Value) > 0 {
			w.ValueRows = append(w.ValueRows, i)
			w.ValueLens = append(w.ValueLens, len(en.Value))
			w.Values = append(w.Values, en.Value...)
		}
	}
	return w
}

// entries checks the columns agree and carves the catalog rows: one
// backing array of node names for every row's Locations, the value bytes
// shared with the decoded column.
func (w *wireCatalog) entries() ([]CatalogEntry, error) {
	n := len(w.Keys)
	if len(w.Sizes) != n || len(w.Holders) != n {
		return nil, fmt.Errorf("%w: %d keys, %d sizes, %d holder counts", errColumns, n, len(w.Sizes), len(w.Holders))
	}
	for i := 1; i < n; i++ {
		if w.Keys[i-1].Compare(w.Keys[i]) >= 0 {
			return nil, fmt.Errorf("%w: catalog key %+v after %+v", errColumns, w.Keys[i], w.Keys[i-1])
		}
	}
	if err := counted(w.Holders, len(w.Locs), "holders"); err != nil {
		return nil, err
	}
	if len(w.ValueLens) != len(w.ValueRows) {
		return nil, fmt.Errorf("%w: %d value rows, %d value lengths", errColumns, len(w.ValueRows), len(w.ValueLens))
	}
	if err := counted(w.ValueLens, len(w.Values), "value bytes"); err != nil {
		return nil, err
	}
	for j, row := range w.ValueRows {
		if row < 0 || row >= n || j > 0 && row <= w.ValueRows[j-1] || w.ValueLens[j] == 0 {
			return nil, fmt.Errorf("%w: value row %d of a %d-row catalog, %d bytes", errColumns, row, n, w.ValueLens[j])
		}
	}
	locs := sized[string](len(w.Locs))
	for _, at := range w.Locs {
		if at < 0 || at >= len(w.Nodes) {
			return nil, fmt.Errorf("%w: node index %d of a %d-node table", errColumns, at, len(w.Nodes))
		}
		locs = append(locs, w.Nodes[at])
	}
	out := sized[CatalogEntry](n)
	at := 0
	for i, k := range w.Keys {
		out = append(out, CatalogEntry{Key: k, Size: w.Sizes[i], Locations: carve(locs, &at, w.Holders[i])})
	}
	at = 0
	for j, row := range w.ValueRows {
		out[row].Value = carve(w.Values, &at, w.ValueLens[j])
	}
	return out, nil
}
