// Package simnet models the interconnect of an advanced cyberinfrastructure
// platform: HPC fabric, cloud datacenter networks, and the slow, high-latency
// links that reach fog and edge devices (paper Sec. III).
//
// The model is intentionally simple — per-pair bandwidth and latency — which
// is the level of detail the paper's runtime decisions consume (data-transfer
// cost between nodes, locality scoring). Resolution order for a pair of
// nodes: intra-zone rule, zone-pair rule, default.
package simnet

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Link describes one direction-less connection between two endpoints.
type Link struct {
	// BandwidthMBps is sustained throughput in megabytes per second.
	BandwidthMBps float64
	// Latency is the one-way message latency.
	Latency time.Duration
}

// TransferTime returns the time to move size bytes over the link.
func (l Link) TransferTime(size int64) time.Duration {
	if size <= 0 {
		return l.Latency
	}
	if l.BandwidthMBps <= 0 {
		return l.Latency
	}
	seconds := float64(size) / (l.BandwidthMBps * 1e6)
	return l.Latency + time.Duration(seconds*float64(time.Second))
}

type pair struct{ a, b string }

func normPair(a, b string) pair {
	if a > b {
		a, b = b, a
	}
	return pair{a, b}
}

// Network resolves links between named nodes. The zero value is not usable;
// construct with New.
//
// The topology maps (zones and their links) are built before a run and
// read-only afterwards. The partition overlay (cuts) is the one piece of
// state that mutates mid-run — fault injection severs and heals links
// while the scheduler is consulting the network — so it has its own lock.
type Network struct {
	def       Link
	zoneOf    map[string]string
	zoneLinks map[pair]Link
	intra     map[string]Link

	cutMu sync.RWMutex
	cuts  map[pair]struct{}
}

// New returns a network whose unresolved pairs use the given default link.
func New(def Link) *Network {
	return &Network{
		def:       def,
		zoneOf:    make(map[string]string),
		zoneLinks: make(map[pair]Link),
		intra:     make(map[string]Link),
		cuts:      make(map[pair]struct{}),
	}
}

// SetZone assigns a node to a zone (e.g. "hpc", "cloud", "fog").
func (n *Network) SetZone(node, zone string) {
	n.zoneOf[node] = zone
}

// SetZoneLink installs the link used between any node in zone a and any node
// in zone b (a may equal b; prefer SetIntraZone for that case).
func (n *Network) SetZoneLink(zoneA, zoneB string, l Link) {
	n.zoneLinks[normPair(zoneA, zoneB)] = l
}

// SetIntraZone installs the link used between two distinct nodes of the same
// zone.
func (n *Network) SetIntraZone(zone string, l Link) {
	n.intra[zone] = l
}

// Cut severs the connection between two endpoints — a network partition.
// Each endpoint may be a node name or a zone name: cutting a zone pair
// severs every link between nodes of those zones. Transfers across a cut
// are impossible until Heal is called; BestSource skips unreachable
// candidates. Safe for concurrent use with resolution queries.
func (n *Network) Cut(a, b string) {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	n.cuts[normPair(a, b)] = struct{}{}
}

// Heal restores a connection previously severed by Cut.
func (n *Network) Heal(a, b string) {
	n.cutMu.Lock()
	defer n.cutMu.Unlock()
	delete(n.cuts, normPair(a, b))
}

// Reachable reports whether a transfer from a to b is currently possible:
// neither the node pair, nor the zone pair, nor either mixed node–zone
// pair is cut. A node always reaches itself.
func (n *Network) Reachable(a, b string) bool {
	if a == b {
		return true
	}
	n.cutMu.RLock()
	defer n.cutMu.RUnlock()
	if len(n.cuts) == 0 {
		return true
	}
	if _, cut := n.cuts[normPair(a, b)]; cut {
		return false
	}
	za, zb := n.zoneOf[a], n.zoneOf[b]
	for _, p := range [...]pair{normPair(za, zb), normPair(a, zb), normPair(za, b)} {
		if p.a == "" || p.b == "" {
			continue
		}
		if _, cut := n.cuts[p]; cut {
			return false
		}
	}
	return true
}

// HasCuts reports whether any link is currently severed — the cheap guard
// partition-aware consumers (scheduling tie-breaks, availability checks)
// test before paying a per-candidate reachability scan.
func (n *Network) HasCuts() bool {
	n.cutMu.RLock()
	defer n.cutMu.RUnlock()
	return len(n.cuts) > 0
}

// ReachableAny reports whether dest can currently reach at least one of
// the sources — the reachability half of a replica-availability check:
// a data version with replicas on sources is obtainable at dest iff this
// holds.
func (n *Network) ReachableAny(dest string, sources []string) bool {
	for _, s := range sources {
		if n.Reachable(s, dest) {
			return true
		}
	}
	return false
}

// LinkBetween resolves the effective link between two nodes. Transfers from
// a node to itself are free (infinite bandwidth, zero latency).
func (n *Network) LinkBetween(a, b string) Link {
	if a == b {
		return Link{BandwidthMBps: 0, Latency: 0} // local: TransferTime treats 0 bw as latency-only
	}
	za, zb := n.zoneOf[a], n.zoneOf[b]
	if za != "" && zb != "" {
		if za == zb {
			if l, ok := n.intra[za]; ok {
				return l
			}
		}
		if l, ok := n.zoneLinks[normPair(za, zb)]; ok {
			return l
		}
	}
	return n.def
}

// TransferTime returns the time to move size bytes from node a to node b.
// Local transfers take zero time.
func (n *Network) TransferTime(a, b string, size int64) time.Duration {
	if a == b {
		return 0
	}
	return n.LinkBetween(a, b).TransferTime(size)
}

// BestSource picks, among candidate source nodes, the one with the smallest
// transfer time to dest for a payload of the given size. Candidates behind
// a cut link (see Cut) are skipped. It returns the chosen source and the
// transfer time. With no candidates — or none reachable — it returns ok ==
// false.
func (n *Network) BestSource(dest string, candidates []string, size int64) (src string, t time.Duration, ok bool) {
	if len(candidates) == 0 {
		return "", 0, false
	}
	// Name order decides ties between equally fast sources. The location
	// registry's holder lists arrive sorted; anything else is sorted on a copy.
	if !sort.StringsAreSorted(candidates) {
		candidates = append([]string(nil), candidates...)
		sort.Strings(candidates)
	}
	var best string
	var bestT time.Duration
	for _, c := range candidates {
		if !n.Reachable(c, dest) {
			continue
		}
		if ct := n.TransferTime(c, dest, size); !ok || ct < bestT {
			best, bestT, ok = c, ct, true
		}
	}
	return best, bestT, ok
}

// String summarises the network configuration.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{zones=%d default=%.0fMB/s+%v}",
		len(n.zoneLinks)+len(n.intra), n.def.BandwidthMBps, n.def.Latency)
}

// Continuum builds the three-tier network of the paper's Fig. 5 (cloud at
// the top, fog in the middle, edge producing data at the bottom) plus an HPC
// zone, with representative link qualities:
//
//	hpc   intra: 12.5 GB/s, 1µs   (InfiniBand-class)
//	cloud intra: 1.25 GB/s, 50µs  (10 GbE)
//	fog   intra: 12.5 MB/s, 2ms   (WiFi-class)
//	edge→fog:    2.5 MB/s, 10ms   (constrained uplink)
//	fog→cloud:   25 MB/s, 20ms    (WAN)
//	cloud→hpc:   125 MB/s, 5ms    (site interconnect)
//	edge→cloud:  2.5 MB/s, 40ms   (long WAN path)
func Continuum() *Network {
	n := New(Link{BandwidthMBps: 10, Latency: 20 * time.Millisecond})
	n.SetIntraZone("hpc", Link{BandwidthMBps: 12500, Latency: time.Microsecond})
	n.SetIntraZone("cloud", Link{BandwidthMBps: 1250, Latency: 50 * time.Microsecond})
	n.SetIntraZone("fog", Link{BandwidthMBps: 12.5, Latency: 2 * time.Millisecond})
	n.SetIntraZone("edge", Link{BandwidthMBps: 2.5, Latency: 10 * time.Millisecond})
	n.SetZoneLink("edge", "fog", Link{BandwidthMBps: 2.5, Latency: 10 * time.Millisecond})
	n.SetZoneLink("fog", "cloud", Link{BandwidthMBps: 25, Latency: 20 * time.Millisecond})
	n.SetZoneLink("cloud", "hpc", Link{BandwidthMBps: 125, Latency: 5 * time.Millisecond})
	n.SetZoneLink("edge", "cloud", Link{BandwidthMBps: 2.5, Latency: 40 * time.Millisecond})
	n.SetZoneLink("edge", "hpc", Link{BandwidthMBps: 2.5, Latency: 45 * time.Millisecond})
	n.SetZoneLink("fog", "hpc", Link{BandwidthMBps: 25, Latency: 25 * time.Millisecond})
	return n
}
