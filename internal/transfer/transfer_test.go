package transfer

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/simnet"
)

func key(d, v int) deps.Version { return deps.Version{Data: deps.DataID(d), Ver: v} }

func TestRegistryReplicas(t *testing.T) {
	r := NewRegistry()
	k := key(1, 1)
	r.AddReplica(k, "n2")
	r.AddReplica(k, "n1")
	r.AddReplica(k, "n1") // duplicate
	got := r.Where(k)
	if len(got) != 2 || got[0] != "n1" || got[1] != "n2" {
		t.Fatalf("Where = %v, want [n1 n2]", got)
	}
	if !slices.Contains(r.Where(k), "n1") || slices.Contains(r.Where(k), "n3") {
		t.Fatal("Where wrong")
	}
	r.DropNode("n1")
	if got := r.Where(k); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("Where after dropping n1 = %v, want [n2]", got)
	}
}

func TestLocalBytes(t *testing.T) {
	r := NewRegistry()
	k1, k2, k3 := key(1, 1), key(2, 1), key(3, 1)
	r.SetSize(k1, 100)
	r.SetSize(k2, 200)
	r.SetSize(k3, 400)
	r.AddReplica(k1, "n1")
	r.AddReplica(k2, "n1")
	r.AddReplica(k3, "n2")
	keys := []deps.Version{k1, k2, k3}
	if got := r.LocalBytes("n1", keys); got != 300 {
		t.Fatalf("LocalBytes(n1) = %d, want 300", got)
	}
}

func TestDropNodeReportsLostData(t *testing.T) {
	r := NewRegistry()
	k1, k2 := key(1, 1), key(2, 1)
	r.AddReplica(k1, "dying") // sole replica -> lost
	r.AddReplica(k2, "dying")
	r.AddReplica(k2, "safe") // replicated -> survives
	lost := r.DropNode("dying")
	if len(lost) != 1 || lost[0] != k1 {
		t.Fatalf("lost = %v, want [%v]", lost, k1)
	}
	if len(r.Where(k2)) != 1 {
		t.Fatal("replicated key should survive node loss")
	}
	if len(r.Where(k1)) != 0 {
		t.Fatal("lost key should have no locations")
	}
}

func newManager() (*Manager, *Registry) {
	net := simnet.New(simnet.Link{BandwidthMBps: 100, Latency: 0})
	reg := NewRegistry()
	return NewManager(net, reg), reg
}

func TestPlanFetchSkipsLocalReplicas(t *testing.T) {
	m, reg := newManager()
	k := key(1, 1)
	reg.SetSize(k, 1e6)
	reg.AddReplica(k, "dest")
	p := m.PlanFetch("dest", []deps.Version{k})
	if p.Bytes != 0 || p.Time != 0 || len(p.Moves) != 0 {
		t.Fatalf("local fetch planned moves: %+v", p)
	}
}

func TestPlanFetchChoosesFastestSource(t *testing.T) {
	net := simnet.New(simnet.Link{BandwidthMBps: 1, Latency: 0})
	net.SetZone("fast", "zf")
	net.SetZone("dest", "zd")
	net.SetZoneLink("zf", "zd", simnet.Link{BandwidthMBps: 1000})
	reg := NewRegistry()
	m := NewManager(net, reg)
	k := key(1, 1)
	reg.SetSize(k, 1e6)
	reg.AddReplica(k, "slow")
	reg.AddReplica(k, "fast")
	p := m.PlanFetch("dest", []deps.Version{k})
	if len(p.Moves) != 1 || p.Moves[0].From != "fast" {
		t.Fatalf("moves = %+v, want fetch from fast", p.Moves)
	}
	if p.Bytes != 1e6 {
		t.Fatalf("bytes = %d", p.Bytes)
	}
	// 1 MB at 1000 MB/s = 1 ms.
	if p.Time != time.Millisecond {
		t.Fatalf("time = %v, want 1ms", p.Time)
	}
}

func TestPlanFetchAccumulates(t *testing.T) {
	m, reg := newManager()
	k1, k2 := key(1, 1), key(2, 1)
	reg.SetSize(k1, 100e6) // 1 s at 100 MB/s
	reg.SetSize(k2, 200e6) // 2 s
	reg.AddReplica(k1, "src")
	reg.AddReplica(k2, "src")
	p := m.PlanFetch("dest", []deps.Version{k1, k2})
	if p.Time != 3*time.Second {
		t.Fatalf("serialized transfer time = %v, want 3s", p.Time)
	}
	if p.Bytes != 300e6 {
		t.Fatalf("bytes = %d, want 3e8", p.Bytes)
	}
}

func TestPlanFetchReportsMissing(t *testing.T) {
	m, _ := newManager()
	k := key(9, 1)
	p := m.PlanFetch("dest", []deps.Version{k})
	if len(p.MissingKeys) != 1 || p.MissingKeys[0] != k {
		t.Fatalf("missing = %v, want [%v]", p.MissingKeys, k)
	}
}

func TestPlanFetchClassifiesUnreachable(t *testing.T) {
	m, reg := newManager()
	k := key(9, 1)
	reg.SetSize(k, 10)
	reg.AddReplica(k, "src")
	m.net.Cut("src", "dest")
	p := m.PlanFetch("dest", []deps.Version{k})
	if len(p.MissingKeys) != 0 {
		t.Fatalf("missing = %v, want none (replica exists, just cut off)", p.MissingKeys)
	}
	if len(p.UnreachableKeys) != 1 || p.UnreachableKeys[0] != k {
		t.Fatalf("unreachable = %v, want [%v]", p.UnreachableKeys, k)
	}
	m.net.Heal("src", "dest")
	if p := m.PlanFetch("dest", []deps.Version{k}); len(p.Moves) != 1 {
		t.Fatalf("after heal: moves = %v, want one fetch", p.Moves)
	}
}

func TestApplyRecordsNewReplicas(t *testing.T) {
	m, reg := newManager()
	k := key(1, 1)
	reg.SetSize(k, 10)
	reg.AddReplica(k, "src")
	p := m.PlanFetch("dest", []deps.Version{k})
	m.Apply(p)
	if !slices.Contains(reg.Where(k), "dest") {
		t.Fatal("Apply did not record replica at dest")
	}
	// Second fetch is now free.
	p2 := m.PlanFetch("dest", []deps.Version{k})
	if p2.Bytes != 0 {
		t.Fatal("second fetch should be local")
	}
}

func TestVersionsAreDistinctKeys(t *testing.T) {
	r := NewRegistry()
	r.AddReplica(key(1, 1), "n1")
	if len(r.Where(key(1, 2))) != 0 {
		t.Fatal("different versions must not alias")
	}
}

// TestRegistryMatchesNaiveModel drives the column-per-datum registry and
// a naive model (a size map and a holder set per key) through the same
// seeded stream of writes — Seed handed unsorted lists with repeats among
// them — and checks that every read — the Row primitive and everything
// built on it — agrees after each step, and the checkpoint log once a
// base capture has opened it: every write's row as it left it, in write
// order (over a quarter of the steps under -short).
// Each datum has 42 versions, written in random
// order: a dense run, and outliers far from it on both sides (-1<<40,
// -7, 1<<40, 1<<40+3), so columns grow by relocation, take inserts ahead
// of their first row and are searched off the dense fast path. The
// layout check runs after every step.
func TestRegistryMatchesNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	r.StartLog()
	size := map[deps.Version]int64{}
	loc := map[deps.Version]map[string]bool{}
	var logged []Entry
	nodes := []string{"n4", "n0", "n3", "n1", "n2"}
	vers := []int{-1 << 40, -7, 1 << 40, 1<<40 + 3}
	for v := 0; len(vers) < 42; v++ {
		vers = append(vers, v)
	}
	sort.Ints(vers)
	var keys []deps.Version // in key order, as DropNode reports its losses
	for d := 0; d < 4; d++ {
		for _, v := range vers {
			keys = append(keys, key(d, v))
		}
	}
	sortedHolders := func(k deps.Version) []string {
		var out []string
		for n := range loc[k] {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	modelEntry := func(k deps.Version) Entry { return Entry{Key: k, Size: size[k], Locations: sortedHolders(k)} }
	sameEntries := func(what string, got, want []Entry) {
		t.Helper()
		sort.Slice(want, func(i, j int) bool { return want[i].Key.Less(want[j].Key) })
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, model has %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Size != want[i].Size || !slices.Equal(got[i].Locations, want[i].Locations) {
				t.Fatalf("%s[%d] = %+v, model %+v", what, i, got[i], want[i])
			}
		}
	}
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for step := 0; step < steps; step++ {
		k, n := keys[rng.Intn(len(keys))], nodes[rng.Intn(len(nodes))]
		switch op := rng.Intn(16); {
		case op < 5:
			size[k] = int64(rng.Intn(4)) * 100
			r.SetSize(k, size[k])
			logged = append(logged, modelEntry(k))
		case op < 10:
			if loc[k] == nil {
				loc[k] = map[string]bool{}
			}
			loc[k][n] = true
			r.AddReplica(k, n)
			logged = append(logged, modelEntry(k))
		case op < 12:
			sz, holders := int64(rng.Intn(3))*100, make([]string, rng.Intn(4))
			for i := range holders {
				holders[i] = nodes[rng.Intn(len(nodes))]
			}
			if sz > 0 {
				size[k] = sz
			}
			if loc[k] == nil {
				loc[k] = map[string]bool{}
			}
			for _, h := range holders {
				loc[k][h] = true
			}
			if sz > 0 || len(holders) > 0 {
				logged = append(logged, modelEntry(k))
			}
			r.Seed(k, sz, holders)
		case op < 14:
			var lost []deps.Version
			for _, k := range keys {
				if loc[k][n] {
					delete(loc[k], n)
					logged = append(logged, modelEntry(k))
					if len(loc[k]) == 0 {
						lost = append(lost, k)
					}
				}
			}
			if got := r.DropNode(n); !slices.Equal(got, lost) {
				t.Fatalf("step %d: DropNode(%s) lost %v, model %v", step, n, got, lost)
			}
		default:
			got := r.SwapLog(nil)
			if len(got) != len(logged) {
				t.Fatalf("step %d: SwapLog = %d rows, model %d", step, len(got), len(logged))
			}
			for i, want := range logged {
				if got[i].Key != want.Key || got[i].Size != want.Size || !slices.Equal(got[i].Locations, want.Locations) {
					t.Fatalf("step %d: SwapLog[%d] = %+v, model %+v", step, i, got[i], want)
				}
			}
			logged = nil
		}
		var all []Entry
		for _, k := range keys {
			want := modelEntry(k)
			gotSize, gotHolders := r.Row(k)
			if gotSize != want.Size || !slices.Equal(gotHolders, want.Locations) {
				t.Fatalf("step %d: Row(%v) = %d %v, model %d %v", step, k, gotSize, gotHolders, want.Size, want.Locations)
			}
			if r.Size(k) != want.Size || !slices.Equal(r.Where(k), want.Locations) {
				t.Fatalf("step %d: Size/Where(%v) = %d %v, model %d %v", step, k, r.Size(k), r.Where(k), want.Size, want.Locations)
			}
			if want.Size != 0 || len(want.Locations) > 0 {
				all = append(all, want)
			}
		}
		for _, n := range nodes {
			var local int64
			for _, k := range keys {
				if got := slices.Contains(r.Where(k), n); got != loc[k][n] {
					t.Fatalf("step %d: %s in Where(%v) = %v, model %v", step, n, k, got, loc[k][n])
				}
				if loc[k][n] {
					local += size[k]
				}
			}
			if got := r.LocalBytes(n, keys); got != local {
				t.Fatalf("step %d: LocalBytes(%s) = %d, model %d", step, n, got, local)
			}
		}
		sameEntries("Entries", r.Entries(), all)
		if err := r.CheckLayout(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// A version far from its datum's others costs one row, not the gap
// between them.
func TestSparseVersionsAllocateNoGap(t *testing.T) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	allocs := testing.AllocsPerRun(10, func() {
		r := NewRegistry()
		r.Seed(key(1, 0), 10, []string{"a"})
		r.Seed(key(1, 1<<40), 10, []string{"a"})
	})
	runtime.ReadMemStats(&ms1)
	if allocs > 8 {
		t.Fatalf("versions 0 and 1<<40 of one datum took %.0f allocations, want at most 8", allocs)
	}
	if perRun := (ms1.TotalAlloc - ms0.TotalAlloc) / 11; perRun > 64<<10 {
		t.Fatalf("versions 0 and 1<<40 of one datum took %d bytes, want under 64 KiB", perRun)
	}
}

// TestStencilStreamAllocatesPerSlab is the column layout's allocation
// gate: a 1024-datum x 100-version stencil stream (each version of every
// datum sized, then placed, version by version) allocates slabs, not rows
// or columns — at most one object per 64 rows.
func TestStencilStreamAllocatesPerSlab(t *testing.T) {
	const data, versions = 1024, 100
	nodes := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	var r *Registry
	allocs := testing.AllocsPerRun(1, func() {
		r = NewRegistry()
		for v := 0; v < versions; v++ {
			for d := 0; d < data; d++ {
				r.SetSize(key(d+1, v), 1<<20)
				r.AddReplica(key(d+1, v), nodes[d%len(nodes)])
			}
		}
	})
	if rows := data * versions; allocs > float64(rows/64) {
		t.Fatalf("%d rows took %.0f allocations, want at most %d (one per 64 rows)", rows, allocs, rows/64)
	}
	if err := r.CheckLayout(); err != nil {
		t.Fatal(err)
	}
	if size, holders := r.Row(key(17, 99)); size != 1<<20 || !slices.Equal(holders, []string{"n0"}) {
		t.Fatalf("Row(d17v99) = %d %v, want 1 MiB on n0", size, holders)
	}
}

// TestHolderListsAreNeverEditedInPlace races readers that keep the lists
// Row hands them against writers on the same keys (run it under -race): a
// list seen once must still read the same after any number of writes.
func TestHolderListsAreNeverEditedInPlace(t *testing.T) {
	r := NewRegistry()
	r.StartLog() // open the log, so SwapLog hands lists out
	keys := []deps.Version{key(1, 0), key(2, 0), key(3, 0)}
	nodes := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				k, n := keys[rng.Intn(len(keys))], nodes[rng.Intn(len(nodes))]
				switch rng.Intn(4) {
				case 0:
					r.SetSize(k, int64(i))
				case 1, 2:
					r.AddReplica(k, n)
				default:
					r.DropNode(n)
				}
			}
		}(int64(w))
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				_, holders := r.Row(keys[rng.Intn(len(keys))])
				kept := slices.Clone(holders)
				r.LocalBytes(nodes[rng.Intn(len(nodes))], keys)
				for _, e := range r.SwapLog(nil) {
					if !sort.StringsAreSorted(e.Locations) {
						t.Errorf("SwapLog handed out an unsorted list: %v", e.Locations)
					}
				}
				if !slices.Equal(holders, kept) || !sort.StringsAreSorted(holders) {
					t.Errorf("a published holder list changed under its reader: %v, was %v", holders, kept)
					return
				}
			}
		}(int64(100 + rd))
	}
	wg.Wait()
}

// Seed keeps a row sorted and duplicate-free whatever list it is handed,
// and shares the caller's list only when it already is.
func TestSeedNormalisesItsList(t *testing.T) {
	r := NewRegistry()
	sorted := []string{"a", "c"}
	r.Seed(key(1, 0), 10, sorted)
	if _, got := r.Row(key(1, 0)); &got[0] != &sorted[0] {
		t.Fatal("a sorted, duplicate-free list seeded into an empty row was copied")
	}
	r.Seed(key(1, 0), 0, []string{"b", "a"})
	r.Seed(key(2, 0), 0, []string{"c", "a", "c", "b", "a"})
	for _, c := range []struct {
		k    deps.Version
		size int64
		want []string
	}{{key(1, 0), 10, []string{"a", "b", "c"}}, {key(2, 0), 0, []string{"a", "b", "c"}}} {
		if size, got := r.Row(c.k); size != c.size || !slices.Equal(got, c.want) {
			t.Fatalf("Row(%v) = %d %v, want %d %v", c.k, size, got, c.size, c.want)
		}
	}
	if !slices.Equal(sorted, []string{"a", "c"}) {
		t.Fatalf("merging onto a shared list wrote into it: %v", sorted)
	}
}

// The log opens at the first StartLog: writes before it log nothing (the
// base holds them), writes after it log their row as they leave it, and
// a warm write appends without allocating.
func TestLogStartsAtFirstBase(t *testing.T) {
	r := NewRegistry()
	r.SetSize(key(1, 0), 10)
	r.AddReplica(key(1, 0), "a")
	r.Seed(key(2, 0), 10, []string{"a"})
	if d := r.SwapLog(nil); d != nil {
		t.Fatalf("before any base: SwapLog %v; want nothing", d)
	}
	if got := len(r.StartLog()); got != 2 {
		t.Fatalf("StartLog = %d rows, want 2", got)
	}
	r.AddReplica(key(2, 0), "b")
	r.SetSize(key(2, 0), 20)
	d := r.SwapLog(nil)
	if len(d) != 2 || d[0].Key != key(2, 0) || d[0].Size != 10 || d[1].Size != 20 || !slices.Equal(d[1].Locations, []string{"a", "b"}) {
		t.Fatalf("SwapLog after a base = %+v, want key(2, 0) twice, as each write left it", d)
	}
	spare := r.SwapLog(d)
	if allocs := testing.AllocsPerRun(100, func() {
		r.SetSize(key(1, 0), 30)
		spare = r.SwapLog(spare)
	}); allocs != 0 {
		t.Fatalf("a warm logged write and swap allocated %.0f objects, want 0", allocs)
	}
}

// TestPlanFetchAllocatesOnlyItsMoves is the planner's deterministic cost
// gate: one row read per key and no copy of the holder list, so a
// non-empty plan costs its Moves slice and nothing else.
func TestPlanFetchAllocatesOnlyItsMoves(t *testing.T) {
	m, reg := newManager()
	keys := []deps.Version{key(1, 1), key(2, 1), key(3, 1)}
	for i, k := range keys {
		reg.SetSize(k, int64(i+1)*1e6)
		reg.AddReplica(k, "src-b")
		reg.AddReplica(k, "src-a")
	}
	reg.AddReplica(keys[1], "dst")
	var p Plan
	allocs := testing.AllocsPerRun(200, func() { p = m.PlanFetch("dst", keys) })
	if len(p.Moves) != 2 || p.Moves[0].From != "src-a" || p.Bytes != 4e6 {
		t.Fatalf("plan = %+v, want two moves from src-a totalling 4 MB", p)
	}
	if allocs > 1 {
		t.Fatalf("PlanFetch allocated %v times for a two-move plan, want at most 1", allocs)
	}
}
