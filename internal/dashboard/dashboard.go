// Package dashboard renders the demo's control dashboard: a web page that
// "allows requesting network slices on-demand, monitors their performance
// once deployed and displays the achieved multiplexing gain through
// overbooking" (abstract), including "the current gains vs. penalties when
// multiple network slices are running" (Section 3).
//
// The page is server-rendered html/template with an inline SVG chart (no
// JavaScript frameworks — the repository is stdlib-only). Instead of the
// old fixed-interval polling refresh, a few inline lines of vanilla JS
// subscribe to the orchestrator's lifecycle stream (GET /api/v2/events,
// Server-Sent Events) and re-render only when something actually happened —
// an admission, a squeeze, an SLA violation, a restoration. Browsers
// without EventSource (and error paths) fall back to the old timed reload.
// A small HTML form posts slice requests to the REST API through the same
// orchestrator, and a "recent events" pane shows the tail of the ordered
// event sequence.
//
// Each render reads Gain() and List() — both served from the orchestrator's
// lock-free read plane (per-shard counters and shard-by-shard snapshots; see
// core's gain.go and DESIGN.md §7), so dashboard polling at any rate never
// freezes admission or the control epoch, and epoch-aligned numbers are
// additionally available from the published EpochSnapshot (GET
// /api/v2/epoch).
package dashboard

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/slice"
)

// refreshSeconds is the fallback reload interval used when the event
// stream is unavailable.
const refreshSeconds = 5

// Handler serves the dashboard over an orchestrator.
type Handler struct {
	orch *core.Orchestrator
	tpl  *template.Template
}

// New builds the dashboard handler.
func New(orch *core.Orchestrator) *Handler {
	return &Handler{
		orch: orch,
		tpl:  template.Must(template.New("dash").Parse(pageTemplate)),
	}
}

// view is the template's data model.
type view struct {
	Refresh    int
	Now        string
	Gain       core.GainReport
	GainPct    string
	Slices     []slice.Snapshot
	ENBs       []enbView
	DCs        []dcView
	Chart      template.HTML
	RejectRows []rejectRow
	// Events is the tail of the lifecycle event sequence, newest first,
	// read straight from the orchestrator's replay ring.
	Events []core.Event
	// LastSeq seeds the page's EventSource resume point.
	LastSeq int64
}

type enbView struct {
	Name  string
	Total int
	Free  int
	Util  string
}

type dcView struct {
	Name string
	Kind string
	Util string
	VMs  int
}

type rejectRow struct {
	Reason string
	Count  int
}

// ServeHTTP renders the dashboard (GET) and accepts the request form (POST).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		h.handleForm(w, r)
		return
	}
	v := view{
		Refresh: refreshSeconds,
		Now:     time.Now().UTC().Format(time.RFC3339),
		// LastSeq is read before any state below: an event published while
		// the page gathers Gain/List lands after this sequence, so the
		// EventSource resume (?since=LastSeq) re-renders rather than
		// skipping it and leaving the page stale.
		LastSeq: h.orch.Events().LastSeq(),
		Gain:    h.orch.Gain(),
	}
	v.GainPct = fmt.Sprintf("%.1f%%", (v.Gain.MultiplexingGain-1)*100)
	v.Slices = h.orch.List()
	tb := h.orch.Testbed()
	for _, e := range tb.RAN.All() {
		s := e.Snapshot()
		v.ENBs = append(v.ENBs, enbView{
			Name: s.Name, Total: s.TotalPRBs, Free: s.FreePRBs,
			Util: fmt.Sprintf("%.0f%%", s.Utilization*100),
		})
	}
	for _, dc := range tb.Region.All() {
		c := dc.Capacity()
		v.DCs = append(v.DCs, dcView{
			Name: dc.Name(), Kind: dc.Kind(),
			Util: fmt.Sprintf("%.0f%%", dc.Utilization()*100), VMs: c.VMs,
		})
	}
	// The histogram is keyed on the stable typed cause codes (bounded
	// cardinality); sort for a deterministic render.
	for code, n := range v.Gain.RejectReasons {
		v.RejectRows = append(v.RejectRows, rejectRow{Reason: code, Count: n})
	}
	sort.Slice(v.RejectRows, func(i, j int) bool { return v.RejectRows[i].Reason < v.RejectRows[j].Reason })
	// Recent lifecycle events, newest first (the ring returns oldest first).
	recent := h.orch.Events().Recent(12)
	for i := len(recent) - 1; i >= 0; i-- {
		v.Events = append(v.Events, recent[i])
	}
	v.Chart = template.HTML(h.gainChartSVG(640, 200))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := h.tpl.Execute(w, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleForm accepts the slice-request form post and redirects back. An
// unknown class or a malformed number is a 400 and submits nothing.
func (h *Handler) handleForm(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class, err := slice.ParseClass(r.PostFormValue("class"))
	f := func(name string) float64 {
		x, perr := strconv.ParseFloat(r.PostFormValue(name), 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("%s: %w", name, perr)
		}
		return x
	}
	req := slice.Request{
		Tenant: r.PostFormValue("tenant"),
		SLA: slice.SLA{
			ThroughputMbps: f("throughput"),
			MaxLatencyMs:   f("latency"),
			Duration:       time.Duration(f("duration_min") * float64(time.Minute)),
			PriceEUR:       f("price"),
			PenaltyEUR:     f("penalty"),
			Class:          class,
		},
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := h.orch.Submit(req, nil); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, r.URL.Path, http.StatusSeeOther)
}

// gainChartSVG draws the multiplexing-gain and penalty series as two
// polylines. Exported indirectly via the rendered page; kept free of
// template escaping issues by building pure SVG markup.
func (h *Handler) gainChartSVG(width, height int) string {
	store := h.orch.Store()
	gains := store.Series("orchestrator/multiplexing_gain").Values(120)
	pens := store.Series("orchestrator/penalties_eur").Values(120)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`, width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#10151c"/>`, width, height)
	drawSeries := func(vals []float64, color string) {
		if len(vals) < 2 {
			return
		}
		maxV := 0.0
		for _, v := range vals {
			if v > maxV {
				maxV = v
			}
		}
		if maxV <= 0 {
			maxV = 1
		}
		var pts []string
		for i, v := range vals {
			x := float64(i)/float64(len(vals)-1)*float64(width-20) + 10
			y := float64(height-15) - v/maxV*float64(height-30)
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`, color, strings.Join(pts, " "))
	}
	drawSeries(gains, "#4cc38a") // gain: green
	drawSeries(pens, "#e5484d")  // penalties: red
	fmt.Fprintf(&b, `<text x="12" y="16" fill="#4cc38a" font-size="12">multiplexing gain</text>`)
	fmt.Fprintf(&b, `<text x="140" y="16" fill="#e5484d" font-size="12">penalties (EUR)</text>`)
	b.WriteString(`</svg>`)
	return b.String()
}

const pageTemplate = `<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<noscript><meta http-equiv="refresh" content="{{.Refresh}}"></noscript>
<title>E2E Network Slicing Orchestrator</title>
<style>
 body { font-family: -apple-system, "Segoe UI", sans-serif; background:#0b0e13; color:#e6e6e6; margin:2rem; }
 h1 { font-size:1.4rem; } h2 { font-size:1.1rem; margin-top:1.6rem; color:#9ecbff; }
 table { border-collapse: collapse; width:100%; font-size:0.85rem; }
 th, td { border-bottom:1px solid #2a3140; padding:0.35rem 0.6rem; text-align:left; }
 .kpi { display:inline-block; background:#151b26; border:1px solid #2a3140; border-radius:8px;
        padding:0.7rem 1.1rem; margin:0 0.6rem 0.6rem 0; }
 .kpi b { display:block; font-size:1.25rem; color:#4cc38a; }
 .rejected { color:#e5484d; } .active { color:#4cc38a; } .installing { color:#f5a524; }
 form input, form select { background:#151b26; color:#e6e6e6; border:1px solid #2a3140; padding:0.25rem; margin:0.15rem; }
 form button { background:#1f6feb; color:white; border:0; padding:0.4rem 1rem; border-radius:6px; }
</style>
</head>
<body>
<h1>End-to-End Network Slicing Orchestrator — Overbooking Dashboard</h1>
<p>rendered {{.Now}} · live via /api/v2/events (seq {{.LastSeq}}) · fallback refresh {{.Refresh}}s</p>

<div>
 <span class="kpi"><b>{{printf "%.2f×" .Gain.MultiplexingGain}}</b>multiplexing gain</span>
 <span class="kpi"><b>{{printf "%.2f×" .Gain.OverbookingRatio}}</b>overbooking ratio</span>
 <span class="kpi"><b>{{.Gain.Active}}</b>active slices</span>
 <span class="kpi"><b>{{.Gain.Admitted}} / {{.Gain.Rejected}}</b>admitted / rejected</span>
 <span class="kpi"><b>{{printf "%.2f €" .Gain.RevenueTotalEUR}}</b>revenue</span>
 <span class="kpi"><b>{{printf "%.2f €" .Gain.PenaltyTotalEUR}}</b>penalties</span>
 <span class="kpi"><b>{{printf "%.2f €" .Gain.NetRevenueEUR}}</b>net</span>
</div>

<h2>Gains vs. penalties</h2>
{{.Chart}}

<h2>Request a network slice</h2>
<form method="POST">
 <input name="tenant" placeholder="tenant" required>
 <input name="throughput" placeholder="throughput Mbps" required>
 <input name="latency" placeholder="max latency ms" required>
 <input name="duration_min" placeholder="duration min" required>
 <input name="price" placeholder="price €" required>
 <input name="penalty" placeholder="penalty €" required>
 <select name="class">
   <option>eMBB</option><option>automotive</option><option>e-health</option><option>mMTC</option>
 </select>
 <button type="submit">Request slice</button>
</form>

<h2>Network slices</h2>
<table>
<tr><th>ID</th><th>Tenant</th><th>Class</th><th>State</th><th>PLMN</th><th>DC</th>
    <th>Contract</th><th>Allocated</th><th>Demand</th><th>Violations</th><th>Net €</th><th>Cause</th><th>Reason</th></tr>
{{range .Slices}}
<tr>
 <td>{{.ID}}</td><td>{{.Tenant}}</td><td>{{.Class}}</td>
 <td class="{{.State}}">{{.State}}</td>
 <td>{{if .Allocation.PLMN.IsZero}}—{{else}}{{.Allocation.PLMN}}{{end}}</td>
 <td>{{.Allocation.DataCenter}}</td>
 <td>{{printf "%.0f Mbps" .SLA.ThroughputMbps}}</td>
 <td>{{printf "%.1f Mbps" .Allocation.AllocatedMbps}}</td>
 <td>{{printf "%.1f Mbps" .Accounting.DemandMbps}}</td>
 <td>{{.Accounting.ViolationEpochs}}/{{.Accounting.ServedEpochs}}</td>
 <td>{{printf "%.2f" .Accounting.NetEUR}}</td>
 <td>{{.RejectCode}}</td>
 <td>{{.Reason}}</td>
</tr>
{{end}}
</table>

<h2>Radio access (MOCN eNBs)</h2>
<table>
<tr><th>eNB</th><th>PRBs</th><th>free</th><th>utilization</th></tr>
{{range .ENBs}}<tr><td>{{.Name}}</td><td>{{.Total}}</td><td>{{.Free}}</td><td>{{.Util}}</td></tr>{{end}}
</table>

<h2>Data centers</h2>
<table>
<tr><th>DC</th><th>kind</th><th>vCPU utilization</th><th>VMs</th></tr>
{{range .DCs}}<tr><td>{{.Name}}</td><td>{{.Kind}}</td><td>{{.Util}}</td><td>{{.VMs}}</td></tr>{{end}}
</table>

{{if .RejectRows}}
<h2>Rejection reasons</h2>
<table>
<tr><th>cause code</th><th>count</th></tr>
{{range .RejectRows}}<tr><td>{{.Reason}}</td><td>{{.Count}}</td></tr>{{end}}
</table>
{{end}}

{{if .Events}}
<h2>Recent events</h2>
<table>
<tr><th>#</th><th>time</th><th>event</th><th>slice</th><th>tenant</th><th>state</th><th>detail</th></tr>
{{range .Events}}<tr><td>{{.Seq}}</td><td>{{.Time.Format "15:04:05"}}</td><td>{{.Type}}</td><td>{{.Slice}}</td><td>{{.Tenant}}</td><td>{{.State}}</td><td>{{.Detail}}</td></tr>
{{end}}
</table>
{{end}}

<script>
(function () {
  // Event-driven refresh: re-render when the orchestrator publishes a
  // lifecycle event, instead of polling on a timer. Resumes from the
  // sequence this page was rendered at, so nothing is missed in between.
  var reloading = false;
  function reload() {
    if (reloading) { return; }
    reloading = true;
    setTimeout(function () { location.reload(); }, 400);
  }
  function fallback() { setTimeout(function () { location.reload(); }, {{.Refresh}} * 1000); }
  if (!window.EventSource) { fallback(); return; }
  var types = ["submitted", "admitted", "rejected", "installed", "resized",
    "violation", "expired", "deleted", "restored",
    "link-failed", "link-degraded", "link-restored", "resync"];
  var es = new EventSource("/api/v2/events?since={{.LastSeq}}");
  for (var i = 0; i < types.length; i++) { es.addEventListener(types[i], reload); }
  es.onerror = function () { es.close(); fallback(); };
})();
</script>
</body>
</html>`
