package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call the benchmark made into the program. Times are
// wall-clock Unix nanoseconds, so spans recorded by a child process
// slot straight into the parent's timeline.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // -1: no parent
	Op     int    `json:"op"`     // measured op; -1: set-up
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's call belongs to: the name up to the dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans and named samples in memory; a nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
	vals  map[string][]float64
}

func newTracer() *tracer { return &tracer{vals: map[string][]float64{}} }

func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call times fn as one span.
func (t *tracer) call(parent, op int, name string, fn func()) {
	id := t.begin(parent, op, name)
	fn()
	t.end(id)
}

// value records one sample of a named quantity (a count, a size, a
// counter delta).
func (t *tracer) value(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] = append(t.vals[name], v)
	t.mu.Unlock()
}

// adopt grafts spans recorded elsewhere (a child process) under parent,
// renumbering them; their own roots hang off parent.
func (t *tracer) adopt(spans []span, vals map[string][]float64, parent, op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Op = op
		t.spans = append(t.spans, s)
	}
	for k, v := range vals {
		t.vals[k] = append(t.vals[k], v...)
	}
}

// write dumps the spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters reads the snapshot-fork instruments the trigger keeps on the
// default registry; deltas around an op give its fork mix.
type counters struct{ cloneForks, cloneFallbacks, synthesized, invalidations uint64 }

func readCounters() counters {
	c := func(name string) uint64 { return obs.Default.Counter(name).Value() }
	return counters{
		cloneForks:     c("crashtuner_clone_forks_total"),
		cloneFallbacks: c("crashtuner_clone_fallbacks_total"),
		synthesized:    c("crashtuner_snapshot_synthesized_total"),
		invalidations:  c("crashtuner_snapshot_invalidations_total"),
	}
}

// forkMix records the counter deltas since before as fork-mix samples
// over runs injection runs.
func (t *tracer) forkMix(before counters, runs int) {
	now := readCounters()
	t.value("trigger.runs", float64(runs))
	t.value("trigger.clone_forks", float64(now.cloneForks-before.cloneForks))
	t.value("trigger.clone_attempts", float64(now.cloneForks-before.cloneForks+now.cloneFallbacks-before.cloneFallbacks))
	t.value("trigger.clone_fallbacks", float64(now.cloneFallbacks-before.cloneFallbacks))
	t.value("trigger.synthesized", float64(now.synthesized-before.synthesized))
	t.value("trigger.invalidations", float64(now.invalidations-before.invalidations))
}

// The per-layer metric table. Kinds:
//
//	span   mean duration of the named span, over every call (set-up and ops)
//	perop  calls of the named span per traced op
//	mean   mean of the named samples
//	sum    sum of the named samples
//	ratio  sum of samples a over sum of samples b (0 when b sums to 0)
//	p50/95 percentile of the named samples
//	share  self time of the layer over traced-op wall time
//	extra  computed by the workload
var layerTable = []struct{ name, unit, kind, a, b string }{
	{"ir.build_ms", "ms", "span", "ir.build", ""},
	{"ir.builds_per_op", "count", "perop", "ir.build", ""},
	{"ir.alloc_mb", "MB", "mean", "ir.alloc_mb", ""},
	{"metainfo.infer_ms", "ms", "span", "metainfo.infer", ""},
	{"crashpoint.analyze_ms", "ms", "span", "crashpoint.analyze", ""},
	{"crashpoint.static_points", "count", "mean", "crashpoint.static_points", ""},
	{"logparse.parse_ms", "ms", "span", "logparse.parse", ""},
	{"logparse.records", "count", "mean", "logparse.records", ""},
	{"logparse.unmatched_ratio", "ratio", "ratio", "logparse.unmatched", "logparse.records"},
	{"sim.logrun_ms", "ms", "span", "sim.logrun", ""},
	{"profiler.collect_ms", "ms", "span", "profiler.collect", ""},
	{"profiler.iterations", "count", "mean", "profiler.iterations", ""},
	{"profiler.dynamic_points", "count", "mean", "profiler.dynamic_points", ""},
	{"trigger.baseline_ms", "ms", "span", "trigger.baseline", ""},
	{"trigger.run_ms_p50", "ms", "p50", "trigger.run_ms", ""},
	{"trigger.run_ms_p95", "ms", "p95", "trigger.run_ms", ""},
	{"trigger.campaign_ms", "ms", "span", "trigger.campaign", ""},
	{"trigger.runs", "count", "sum", "trigger.runs", ""},
	{"trigger.clone_fork_ratio", "ratio", "ratio", "trigger.clone_forks", "trigger.runs"},
	{"trigger.clone_attempts", "count", "sum", "trigger.clone_attempts", ""},
	{"trigger.fallback_ratio", "ratio", "ratio", "trigger.clone_fallbacks", "trigger.clone_attempts"},
	{"trigger.synth_ratio", "ratio", "ratio", "trigger.synthesized", "trigger.runs"},
	{"trigger.retry_ratio", "ratio", "ratio", "trigger.invalidations", "trigger.runs"},
	{"trigger.harness_errors", "count", "sum", "trigger.harness_errors", ""},
	{"trigger.plan_ms", "ms", "span", "trigger.plan", ""},
	{"trigger.clone_rungs", "count", "mean", "trigger.clone_rungs", ""},
	{"trigger.plan_mb", "MB", "mean", "trigger.plan_mb", ""},
	{"fleet.drain_ms", "ms", "span", "fleet.drain", ""},
	{"fleet.exec_ms", "ms", "mean", "fleet.exec_ms", ""},
	{"fleet.exec_share", "ratio", "mean", "fleet.exec_share", ""},
	{"fleet.factory_ms", "ms", "mean", "fleet.factory_ms", ""},
	{"fleet.await_ms", "ms", "span", "fleet.await", ""},
	{"fleet.leases", "count", "mean", "fleet.leases", ""},
	{"fleet.jobs_per_lease", "count", "ratio", "fleet.leased_jobs", "fleet.leases"},
	{"fleet.steals", "count", "mean", "fleet.steals", ""},
	{"fleet.duplicates", "count", "mean", "fleet.duplicates", ""},
	{"obs.emit_ms", "ms", "mean", "obs.emit_ms", ""},
	{"obs.trace_bytes", "bytes", "mean", "obs.trace_bytes", ""},
	{"campaign.checkpoint_bytes", "bytes", "mean", "campaign.checkpoint_bytes", ""},
	{"triage.record_ms", "ms", "mean", "triage.record_ms", ""},
	{"triage.load_ms", "ms", "span", "triage.load", ""},
	{"triage.cluster_ms", "ms", "span", "triage.cluster", ""},
	{"triage.clusters", "count", "mean", "triage.clusters", ""},
	{"failmode.load_ms", "ms", "span", "failmode.load", ""},
	{"failmode.fit_ms", "ms", "span", "failmode.fit", ""},
	{"failmode.runs", "count", "mean", "failmode.runs", ""},
	{"failmode.modes", "count", "mean", "failmode.modes", ""},
	{"share.proc", "ratio", "share", "proc", ""},
	{"share.sim", "ratio", "share", "sim", ""},
	{"share.ir", "ratio", "share", "ir", ""},
	{"share.logparse", "ratio", "share", "logparse", ""},
	{"share.metainfo", "ratio", "share", "metainfo", ""},
	{"share.crashpoint", "ratio", "share", "crashpoint", ""},
	{"share.profiler", "ratio", "share", "profiler", ""},
	{"share.trigger", "ratio", "share", "trigger", ""},
	{"share.fleet", "ratio", "share", "fleet", ""},
	{"share.triage", "ratio", "share", "triage", ""},
	{"share.failmode", "ratio", "share", "failmode", ""},
	{"share.campaign", "ratio", "share", "campaign", ""},
	{"trace.coverage", "ratio", "extra", "", ""},
	{"trace.overhead_x", "x", "extra", "", ""},
}

// layerStats turns a traced run's spans and samples into the per-layer
// metrics.
type layerStats struct {
	spans  []span
	vals   map[string][]float64
	ops    int // traced ops
	extra  map[string]float64
	checks []string
	self   map[string]time.Duration // per layer, traced ops only
	opWall time.Duration            // sum of the traced ops' root spans
}

type layerMetric struct {
	name, unit string
	value      float64
	samples    int
}

// finish computes per-layer self times over the traced ops: a span's
// self time is its duration minus the union of its children's
// intervals (children may overlap when fleet workers run concurrently).
func (t *tracer) finish(ops int) *layerStats {
	l := &layerStats{spans: t.spans, vals: t.vals, ops: ops, extra: map[string]float64{}, self: map[string]time.Duration{}}
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		self := s.dur() - covered(s, kids[s.ID])
		if s.Parent < 0 {
			l.opWall += s.dur()
			continue
		}
		l.self[s.layer()] += self
	}
	// The op root's own self time is the benchmark's uncovered remainder.
	var cov time.Duration
	for _, d := range l.self {
		cov += d
	}
	if l.opWall > 0 {
		l.extra["trace.coverage"] = float64(cov) / float64(l.opWall)
	}
	return l
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, p.Start), min(c.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	first := true
	for _, x := range iv {
		switch {
		case first:
			curA, curB, first = x[0], x[1], false
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if !first {
		total += curB - curA
	}
	return time.Duration(total)
}

// largestLayer names the layer with the most self time.
func (l *layerStats) largestLayer() string {
	best, bestD := "", time.Duration(-1)
	for _, layer := range sortedKeys(l.self) {
		if l.self[layer] > bestD {
			best, bestD = layer, l.self[layer]
		}
	}
	return best
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (l *layerStats) metrics() []layerMetric {
	spansNamed := func(name string) []span {
		var out []span
		for _, s := range l.spans {
			if s.Name == name && s.End > 0 {
				out = append(out, s)
			}
		}
		return out
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	var out []layerMetric
	for _, m := range layerTable {
		lm := layerMetric{name: m.name, unit: m.unit}
		switch m.kind {
		case "span":
			ss := spansNamed(m.a)
			var tot time.Duration
			for _, s := range ss {
				tot += s.dur()
			}
			lm.samples = len(ss)
			if len(ss) > 0 {
				lm.value = ms(tot) / float64(len(ss))
			}
		case "perop":
			n := 0
			for _, s := range spansNamed(m.a) {
				if s.Op >= 0 {
					n++
				}
			}
			lm.samples = l.ops
			lm.value = frac(n, l.ops)
		case "mean":
			xs := l.vals[m.a]
			lm.samples = len(xs)
			if len(xs) > 0 {
				lm.value = sum(xs) / float64(len(xs))
			}
		case "sum":
			lm.samples = len(l.vals[m.a])
			lm.value = sum(l.vals[m.a])
		case "ratio":
			lm.samples = len(l.vals[m.b])
			if b := sum(l.vals[m.b]); b > 0 {
				lm.value = sum(l.vals[m.a]) / b
			}
		case "p50", "p95":
			xs := append([]float64(nil), l.vals[m.a]...)
			sort.Float64s(xs)
			lm.samples = len(xs)
			q := 0.5
			if m.kind == "p95" {
				q = 0.95
			}
			ds := make([]time.Duration, len(xs))
			for i, x := range xs {
				ds[i] = time.Duration(x * float64(time.Millisecond))
			}
			lm.value = ms(quantile(ds, q))
		case "share":
			lm.samples = l.ops
			if l.opWall > 0 {
				lm.value = float64(l.self[m.a]) / float64(l.opWall)
			}
		case "extra":
			lm.samples = l.ops
			lm.value = l.extra[m.name]
		default:
			panic(fmt.Sprintf("perfbench: metric %s has unknown kind %q", m.name, m.kind))
		}
		out = append(out, lm)
	}
	return out
}

// finishTraced computes a traced run's layer metrics and writes its
// spans.
func finishTraced(cfg config, tr *tracer, out *outcome) error {
	out.layers = tr.finish(len(out.lat) / 2)
	out.layers.extra["trace.overhead_x"] = overhead(out.lat)
	return tr.write(spanPath(cfg))
}

// overhead compares the mean latency of traced ops (odd) with untraced
// ops (even) interleaved in one run.
func overhead(lat []time.Duration) float64 {
	var tr, un time.Duration
	var nt, nu int
	for i, d := range lat {
		if traced(i) {
			tr += d
			nt++
		} else {
			un += d
			nu++
		}
	}
	if nt == 0 || nu == 0 || un == 0 {
		return 0
	}
	return (float64(tr) / float64(nt)) / (float64(un) / float64(nu))
}

// traced says whether op i of a traced run records spans: traced runs
// interleave untraced ops so the tracing overhead is measured on the
// same machine state. Ops pair up on one input (see nth), and the pairs
// alternate which half goes first, so neither half always runs warm.
func traced(i int) bool { return (i+i/2)%2 == 1 }

// nth picks the input of op i from n: in order, except that a traced
// run gives each input to two ops in a row, one untraced and one traced,
// so both halves of the overhead comparison see the same inputs.
func nth(i, n int, trace bool) int {
	if trace {
		i /= 2
	}
	return i % n
}
