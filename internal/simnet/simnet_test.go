package simnet

import (
	"testing"
	"time"
)

func TestLinkTransferTime(t *testing.T) {
	l := Link{BandwidthMBps: 100, Latency: time.Millisecond}
	// 100 MB at 100 MB/s = 1 s + 1 ms latency.
	got := l.TransferTime(100 * 1e6)
	want := time.Second + time.Millisecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestZeroSizeTransferIsLatencyOnly(t *testing.T) {
	l := Link{BandwidthMBps: 100, Latency: 3 * time.Millisecond}
	if got := l.TransferTime(0); got != 3*time.Millisecond {
		t.Fatalf("TransferTime(0) = %v, want 3ms", got)
	}
}

func TestLocalTransferIsFree(t *testing.T) {
	n := New(Link{BandwidthMBps: 1, Latency: time.Second})
	if got := n.TransferTime("a", "a", 1e9); got != 0 {
		t.Fatalf("local transfer = %v, want 0", got)
	}
}

func TestResolutionOrder(t *testing.T) {
	n := New(Link{BandwidthMBps: 1, Latency: 0})
	n.SetZone("a", "z1")
	n.SetZone("b", "z1")
	n.SetZone("c", "z2")

	// Default applies to unknown pair.
	if bw := n.LinkBetween("x", "y").BandwidthMBps; bw != 1 {
		t.Fatalf("default bw = %v, want 1", bw)
	}

	// Intra-zone rule.
	n.SetIntraZone("z1", Link{BandwidthMBps: 100})
	if bw := n.LinkBetween("a", "b").BandwidthMBps; bw != 100 {
		t.Fatalf("intra-zone bw = %v, want 100", bw)
	}

	// Zone-pair rule.
	n.SetZoneLink("z1", "z2", Link{BandwidthMBps: 10})
	if bw := n.LinkBetween("a", "c").BandwidthMBps; bw != 10 {
		t.Fatalf("zone-pair bw = %v, want 10", bw)
	}

	// Symmetric lookup.
	if bw := n.LinkBetween("c", "a").BandwidthMBps; bw != 10 {
		t.Fatalf("reverse zone-pair bw = %v, want 10", bw)
	}
}

func TestBestSourcePrefersFastest(t *testing.T) {
	n := New(Link{BandwidthMBps: 1, Latency: 0})
	n.SetZone("fast", "zf")
	n.SetZone("slow", "zs")
	n.SetZone("dst", "zd")
	n.SetZoneLink("zf", "zd", Link{BandwidthMBps: 1000})
	n.SetZoneLink("zs", "zd", Link{BandwidthMBps: 1})
	src, _, ok := n.BestSource("dst", []string{"slow", "fast"}, 1e6)
	if !ok || src != "fast" {
		t.Fatalf("BestSource = %q ok=%v, want fast", src, ok)
	}
}

func TestBestSourcePrefersLocalReplica(t *testing.T) {
	n := New(Link{BandwidthMBps: 1000, Latency: 0})
	src, d, ok := n.BestSource("dst", []string{"other", "dst"}, 1e9)
	if !ok || src != "dst" || d != 0 {
		t.Fatalf("BestSource = %q %v ok=%v, want local dst with 0 time", src, d, ok)
	}
}

func TestBestSourceEmpty(t *testing.T) {
	n := New(Link{})
	if _, _, ok := n.BestSource("dst", nil, 1); ok {
		t.Fatal("BestSource with no candidates returned ok")
	}
}

func TestBestSourceDeterministicOnTies(t *testing.T) {
	n := New(Link{BandwidthMBps: 10, Latency: 0})
	for i := 0; i < 5; i++ {
		src, _, _ := n.BestSource("dst", []string{"b", "c", "a"}, 1e6)
		if src != "a" {
			t.Fatalf("tie-break chose %q, want lexicographically first (a)", src)
		}
	}
}

// Sorted candidates (what the location registry hands over) take the
// no-copy path; an unsorted list must get the same answer and keep its
// caller's order.
func TestBestSourceSortedAndUnsortedAgree(t *testing.T) {
	n := New(Link{BandwidthMBps: 10, Latency: 0})
	n.SetZone("c", "zc")
	n.SetZone("d", "zc")
	n.SetZone("dst", "zd")
	n.SetZoneLink("zc", "zd", Link{BandwidthMBps: 100})
	n.Cut("a", "dst")
	sorted := []string{"a", "b", "c", "d"}
	unsorted := []string{"d", "b", "a", "c"}
	kept := append([]string(nil), unsorted...)
	s1, t1, ok1 := n.BestSource("dst", sorted, 1e6)
	s2, t2, ok2 := n.BestSource("dst", unsorted, 1e6)
	if s1 != "c" || !ok1 || s1 != s2 || t1 != t2 || ok1 != ok2 {
		t.Fatalf("sorted -> %q %v %v, unsorted -> %q %v %v, want c both times", s1, t1, ok1, s2, t2, ok2)
	}
	for i := range kept {
		if unsorted[i] != kept[i] {
			t.Fatalf("BestSource reordered its caller's slice: %v", unsorted)
		}
	}
	if got := testing.AllocsPerRun(100, func() { n.BestSource("dst", sorted, 1e6) }); got != 0 {
		t.Fatalf("sorted candidates cost %v allocations, want 0", got)
	}
}

func TestContinuumShape(t *testing.T) {
	n := Continuum()
	for node, zone := range map[string]string{
		"mn1": "hpc", "mn2": "hpc", "c1": "cloud", "f1": "fog", "f2": "fog", "e1": "edge",
	} {
		n.SetZone(node, zone)
	}
	const size = 10 * 1e6 // 10 MB
	hpc := n.TransferTime("mn1", "mn2", size)
	fog := n.TransferTime("f1", "f2", size)
	fogCloud := n.TransferTime("f1", "c1", size)
	edgeFog := n.TransferTime("e1", "f1", size)
	if !(hpc < fogCloud && fogCloud < edgeFog) {
		t.Fatalf("continuum ordering broken: hpc=%v fogCloud=%v edgeFog=%v", hpc, fogCloud, edgeFog)
	}
	if !(hpc < fog) {
		t.Fatalf("HPC fabric should beat fog WiFi: hpc=%v fog=%v", hpc, fog)
	}
}
