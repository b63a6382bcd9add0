// Package topview collects cluster-wide introspection for cmd/idea-top:
// it scrapes every node's /metrics and /health admin endpoints (and,
// when asked, /trace journals for an end-to-end SLO estimate), folds
// them into one ClusterSample with a worst-of verdict, and renders the
// refreshing terminal view. The soak harness uses the same Collect to
// assert "no unacknowledged critical anomaly" at sweep time.
package topview

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"idea/internal/health"
	"idea/internal/telemetry"
	"idea/internal/tracing"
)

// NodeSample is one node's scrape: its health status and metrics
// snapshot, or the error that prevented either.
type NodeSample struct {
	Base string `json:"base"`
	// Err is set when the node could not be scraped (it still counts
	// against the cluster verdict: an unreachable node is not healthy).
	Err     string             `json:"err,omitempty"`
	Health  health.Status      `json:"health"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// ClusterSample is one sweep over every node.
type ClusterSample struct {
	At time.Time `json:"at"`
	// Verdict is the worst per-node verdict; an unreachable node forces
	// at least degraded.
	Verdict         health.Verdict `json:"verdict"`
	Unreachable     int            `json:"unreachable"`
	UnackedCritical int            `json:"unacked_critical"`
	// VisibilityP99Ms / ResolutionP99Ms estimate the cluster SLOs from
	// the sampled trace journals (zero when tracing is off or no
	// completed traces were found). They are conservative: computed over
	// whatever window the ring buffers still hold.
	VisibilityP99Ms float64      `json:"visibility_p99_ms,omitempty"`
	ResolutionP99Ms float64      `json:"resolution_p99_ms,omitempty"`
	Traces          int          `json:"traces,omitempty"`
	Nodes           []NodeSample `json:"nodes"`
}

// OK reports whether the sample is acceptance-clean: every node
// reachable and no unacknowledged critical anomaly anywhere. This is
// the predicate soak/CI gates on.
func (c ClusterSample) OK() bool {
	return c.Unreachable == 0 && c.UnackedCritical == 0
}

// Collect sweeps every base URL once. withSLO additionally pulls the
// trace journals and estimates visibility/resolution p99 across the
// cluster. Scrape errors never fail the sweep — they are recorded on
// the node and folded into the verdict.
func Collect(client *http.Client, bases []string, withSLO bool) ClusterSample {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	cs := ClusterSample{At: time.Now()}
	var dumps []tracing.Dump
	for _, base := range bases {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		ns := NodeSample{Base: base}
		if err := getJSON(client, base+"/metrics?format=json", &ns.Metrics); err != nil {
			ns.Err = err.Error()
		} else if err := getJSON(client, base+"/health", &ns.Health); err != nil {
			ns.Err = err.Error()
		} else if withSLO {
			var d tracing.Dump
			if err := getJSON(client, base+"/trace", &d); err == nil && len(d.Events) > 0 {
				dumps = append(dumps, d)
			}
		}
		cs.Nodes = append(cs.Nodes, ns)
	}
	for _, ns := range cs.Nodes {
		if ns.Err != "" {
			cs.Unreachable++
			if cs.Verdict < health.Degraded {
				cs.Verdict = health.Degraded
			}
			continue
		}
		if ns.Health.Verdict > cs.Verdict {
			cs.Verdict = ns.Health.Verdict
		}
		cs.UnackedCritical += ns.Health.UnackedCritical()
	}
	if len(dumps) > 0 {
		cs.VisibilityP99Ms, cs.ResolutionP99Ms, cs.Traces = SLOFromDumps(dumps)
	}
	return cs
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// SLOFromDumps merges per-node span journals and returns the p99 of
// every completed trace's visibility and resolution latency in
// milliseconds, plus the number of merged traces — the same estimate
// Collect derives from live /trace endpoints, reusable against dumps
// gathered any other way (soak artifacts, the scenario-plan runner's
// emulated tracers).
func SLOFromDumps(dumps []tracing.Dump) (visP99, resP99 float64, traces int) {
	var vis, res []time.Duration
	for _, tl := range tracing.Merge(dumps) {
		traces++
		if d, ok := tl.Visibility(); ok {
			vis = append(vis, d)
		}
		if d, ok := tl.Resolution(); ok {
			res = append(res, d)
		}
	}
	return p99ms(vis), p99ms(res), traces
}

func p99ms(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := (len(ds)*99 + 99) / 100
	if idx > len(ds) {
		idx = len(ds)
	}
	return float64(ds[idx-1]) / float64(time.Millisecond)
}

// ---- terminal rendering ----

// RenderText writes the idea-top table for cur; prev (the previous
// sweep, may be nil) supplies the counter deltas behind the per-second
// rates.
func RenderText(w io.Writer, cur ClusterSample, prev *ClusterSample) {
	fmt.Fprintf(w, "idea-top  %s  cluster=%s", cur.At.Format("15:04:05"), cur.Verdict)
	if cur.UnackedCritical > 0 {
		fmt.Fprintf(w, "  UNACKED-CRITICAL=%d", cur.UnackedCritical)
	}
	if cur.Unreachable > 0 {
		fmt.Fprintf(w, "  unreachable=%d", cur.Unreachable)
	}
	if cur.Traces > 0 {
		fmt.Fprintf(w, "  vis-p99=%.0fms res-p99=%.0fms (%d traces)", cur.VisibilityP99Ms, cur.ResolutionP99Ms, cur.Traces)
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tVERDICT\tOPS/S\tWRITES\tAPPLIED\tQMAX\tALIVE\tFSYNC-P99\tGC-P99\tGOROUT\tHEAP\tANOMALIES")
	for _, ns := range cur.Nodes {
		if ns.Err != "" {
			fmt.Fprintf(tw, "%s\tDOWN\t-\t-\t-\t-\t-\t-\t-\t-\t-\t%s\n", ns.Base, ns.Err)
			continue
		}
		m := ns.Metrics
		writes := m.Counters["core.writes_total"]
		fmt.Fprintf(tw, "%v\t%s\t%s\t%s\t%s\t%d\t%d\t%s\t%s\t%d\t%s\t%s\n",
			ns.Health.Node,
			ns.Health.Verdict,
			rate(cur, prev, ns, "core.writes_total"),
			humanCount(writes),
			humanCount(m.Counters["store.updates_applied_total"]),
			maxGauge(m, "core.shard_queue_depth.", "transport.queue_depth."),
			m.Gauges["membership.alive"],
			histP99(m, "store.wal_fsync_ms"),
			histP99(m, "proc.gc_pause_ms"),
			m.Gauges["proc.goroutines"],
			humanBytes(m.Gauges["proc.heap_inuse_bytes"]),
			anomalyCell(ns.Health),
		)
	}
	tw.Flush()
}

// rate formats the per-second delta of counter name between prev and cur
// for the node scraped at the same base URL.
func rate(cur ClusterSample, prev *ClusterSample, ns NodeSample, name string) string {
	if prev == nil {
		return "-"
	}
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return "-"
	}
	for _, old := range prev.Nodes {
		if old.Base != ns.Base || old.Err != "" {
			continue
		}
		d := ns.Metrics.Counters[name] - old.Metrics.Counters[name]
		if d < 0 { // node restarted between sweeps
			return "-"
		}
		return humanCount(int64(float64(d) / dt))
	}
	return "-"
}

func maxGauge(m telemetry.Snapshot, prefixes ...string) int64 {
	var max int64
	for name, v := range m.Gauges {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && v > max {
				max = v
			}
		}
	}
	return max
}

func histP99(m telemetry.Snapshot, name string) string {
	h, ok := m.Histograms[name]
	if !ok || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2gms", h.P99)
}

func anomalyCell(s health.Status) string {
	if len(s.Active) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(s.Active))
	for _, a := range s.Active {
		p := fmt.Sprintf("%s(%s)", a.Detector, a.Severity)
		if a.Acked {
			p += "[acked]"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

func humanCount(v int64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}

func humanBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
