package deps

// The methods below are kept for the frozen benchmark harness (bench/)
// alone: everything else registers through AppendBatch. They go when that
// harness next changes.

// Register is AppendBatch of one task, with no results buffer.
func (p *Processor) Register(task TaskID, accesses []Access) Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s slab
	return p.registerLocked(task, accesses, &s)
}

// RegisterBatch is AppendBatch into a fresh results list.
func (p *Processor) RegisterBatch(batch []TaskAccesses) []Result { return p.AppendBatch(nil, batch) }
