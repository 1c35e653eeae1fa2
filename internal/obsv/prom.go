package obsv

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, cumulative le-labelled
// histogram buckets with _sum and _count. Families are name-sorted and
// series label-sorted, so output is deterministic for a fixed registry
// state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(f.help)
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.snapshot() {
			if f.kind == KindHistogram {
				writeHistogram(&b, f.name, s.labels, s.h)
			} else {
				writeSample(&b, f.name, s.labels, float64(s.value()))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels} value` line.
func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series plus _sum/_count.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	var cum int64
	for i, bound := range bounds {
		cum += counts[i]
		writeSample(b, name+"_bucket", withLabel(labels, "le", formatValue(bound)), float64(cum))
	}
	cum += counts[len(counts)-1]
	writeSample(b, name+"_bucket", withLabel(labels, "le", "+Inf"), float64(cum))
	writeSample(b, name+"_sum", labels, h.Sum())
	writeSample(b, name+"_count", labels, float64(cum))
}

// withLabel appends one label pair to an already-rendered suffix.
func withLabel(labels, k, v string) string {
	pair := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// formatValue renders a float the way Prometheus expects: integral
// values without an exponent or trailing zeros.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry at any path.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewMux returns an http.ServeMux with /metrics bound to the registry
// and the net/http/pprof endpoints mounted under /debug/pprof/ — one
// mux serves both scraping and live profiling, replacing file-only
// profile capture.
func NewMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves NewMux(r) in a background goroutine.
// It returns the bound address (useful with ":0") and a shutdown func.
func Serve(addr string, r *Registry) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obsv: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
