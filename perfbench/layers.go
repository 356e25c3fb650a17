package main

import (
	"math"
	"strings"

	"goldeneye/internal/fleet"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
)

// layerUnits lists every per-layer metric with its unit. A workload
// reports 0 for the layers it does not measure: the service layers on the
// engine workloads, and on fleet-jobs the zoo, simulator, campaign,
// detect and nn layers, which the daemons run inside each job without
// exporting their timings.
var layerUnits = map[string]string{
	"zoo.load_s":                     "s",
	"sim.wrap_s":                     "s",
	"campaign.prep_s":                "s",
	"campaign.passes_per_inj":        "count",
	"campaign.batch_occupancy":       "frac",
	"campaign.shard_skew":            "ratio",
	"campaign.self_us_per_inj":       "us",
	"detect.calib_s":                 "s",
	"nn.forward_us_per_inj":          "us",
	"nn.conv_us_per_inj":             "us",
	"nn.linear_us_per_inj":           "us",
	"nn.attention_us_per_inj":        "us",
	"nn.norm_us_per_inj":             "us",
	"nn.act_us_per_inj":              "us",
	"nn.prefix_frac":                 "frac",
	"tensor.matmul_us_per_inj":       "us",
	"tensor.matmul_gflops":           "GFLOP/s",
	"tensor.im2col_us_per_inj":       "us",
	"tensor.im2col_calls_per_inj":    "count",
	"numfmt.elements_per_inj":        "count",
	"numfmt.fused_frac":              "frac",
	"runtime.gc_cpu_frac":            "frac",
	"runtime.gc_per_kinj":            "count",
	"client.submit_ms_p50":           "ms",
	"client.retries":                 "count",
	"fleet.shard_s_p50":              "s",
	"fleet.shard_skew":               "ratio",
	"fleet.overhead_ms_p50":          "ms",
	"fleet.redispatch":               "count",
	"server.submit_ms_p50":           "ms",
	"server.journal_records_per_job": "count",
	"server.replay_ms":               "ms",
	"server.replayed_records":        "count",
	"server.hit_ms_p50":              "ms",
	"server.repeat_reexec":           "count",
	"server.rejected":                "count",
	"trace.overhead_frac":            "frac",
}

func zeroLayerMetrics() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

// setter returns a function that sets a per-layer metric in m. A figure
// without samples (NaN or infinite) leaves the metric at 0.
func setter(m map[string]metric) func(string, float64) {
	return func(name string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			m[name] = metric{v, m[name].Unit}
		}
	}
}

// inFamily reports whether a registry metric name belongs to family,
// with or without labels.
func inFamily(name, family string) bool {
	return name == family || strings.HasPrefix(name, family+"{")
}

// gcUse is the runtime's garbage-collection work over measured phases.
type gcUse struct{ gcCPU, allCPU, cycles float64 }

func (u *gcUse) add(a, b sampler) {
	u.gcCPU += b.gcCPU - a.gcCPU
	u.allCPU += b.allCPU - a.allCPU
	u.cycles += float64(b.gcs - a.gcs)
}

// setProcessLayers sets the tensor, numfmt and runtime metrics, which
// come from process-wide counters: delta gives a runtime-collector
// counter's growth over the measured phases, inj the injections and gc
// the garbage collection in them.
func setProcessLayers(set func(string, float64), delta func(string) float64, inj float64, gc gcUse) {
	matmul := delta("goldeneye_tensor_matmul_seconds_total")
	set("tensor.matmul_us_per_inj", matmul/inj*1e6)
	set("tensor.matmul_gflops", delta("goldeneye_tensor_matmul_flops_total")/matmul/1e9)
	set("tensor.im2col_us_per_inj", delta("goldeneye_tensor_im2col_seconds_total")/inj*1e6)
	set("tensor.im2col_calls_per_inj", delta("goldeneye_tensor_im2col_total")/inj)
	set("numfmt.elements_per_inj", delta("goldeneye_numfmt_elements_total")/inj)
	fused := delta("goldeneye_numfmt_fused_kernels_total")
	set("numfmt.fused_frac", fused/(fused+delta("goldeneye_numfmt_generic_kernels_total")))
	set("runtime.gc_cpu_frac", gc.gcCPU/gc.allCPU)
	set("runtime.gc_per_kinj", gc.cycles/inj*1000)
}

// fleetLayers holds what the traced fleet window recorded.
type fleetLayers struct {
	spans         []span
	jobs          []*fleetJob
	before, after registries
	client        *telemetry.Registry
	newS          []float64 // per boot: server.New of both daemons
	replayed      []float64 // per boot: journal records replayed
	a, b          sampler
	injected      int
}

// shardTimes returns, per node that served job, the time from the node's
// submission to the end of its progress stream.
func shardTimes(spans []span, job string) (shards []float64, coordStart, coordEnd float64) {
	first := map[string]float64{}
	last := map[string]float64{}
	coordStart = -1
	for _, s := range spans {
		if s.Job != job {
			continue
		}
		role, route, _ := strings.Cut(s.Name, " ")
		end := s.Start + s.Dur
		switch {
		case role == "coord" && route == "POST /v1/jobs":
			coordStart = s.Start
		case role == "coord" && route == "GET /v1/jobs/{id}/events":
			coordEnd = max(coordEnd, end)
		case strings.HasPrefix(role, "node") && route == "POST /v1/jobs":
			if _, ok := first[role]; !ok {
				first[role] = s.Start
			}
		case strings.HasPrefix(role, "node") && route == "GET /v1/jobs/{id}/events":
			last[role] = max(last[role], end)
		}
	}
	for role, start := range first {
		if end, ok := last[role]; ok {
			shards = append(shards, end-start)
		}
	}
	return shards, coordStart, coordEnd
}

func (f fleetLayers) metrics() map[string]metric {
	m := zeroLayerMetrics()
	set := setter(m)

	var shardS, skews, overheads, nodeSubmit, nodeHit []float64
	var reexec float64
	for _, j := range f.jobs {
		if !j.traced {
			continue
		}
		for _, s := range f.spans {
			if s.Job != j.name || !strings.HasPrefix(s.Name, "node") || !strings.HasSuffix(s.Name, " POST /v1/jobs") {
				continue
			}
			switch {
			case j.hit && s.Code == 200:
				nodeHit = append(nodeHit, s.Dur*1000)
			case j.hit:
				reexec++ // a repeat the node executed again instead of replaying
			case s.Code == 202:
				nodeSubmit = append(nodeSubmit, s.Dur*1000)
			}
		}
		if j.hit || j.err != nil {
			continue
		}
		shards, cs, ce := shardTimes(f.spans, j.name)
		if len(shards) == 0 || cs < 0 {
			continue
		}
		lo, hi := shards[0], shards[0]
		for _, s := range shards {
			shardS = append(shardS, s)
			lo, hi = min(lo, s), max(hi, s)
		}
		skews = append(skews, hi/lo)
		overheads = append(overheads, (ce-cs-hi)*1000)
	}
	node := func(family string) float64 { return f.before.delta(f.after, "node", family) }
	set("client.submit_ms_p50", median(durationsOf(f.spans, "client POST /v1/jobs")))
	set("client.retries", counterSum(f.client, client.MetricRetries))
	set("fleet.shard_s_p50", median(shardS))
	set("fleet.shard_skew", median(skews))
	set("fleet.overhead_ms_p50", median(overheads))
	set("fleet.redispatch", f.before.delta(f.after, "coord", fleet.MetricShardsReassigned)+
		f.before.delta(f.after, "coord", fleet.MetricShardsStolen))
	set("server.submit_ms_p50", median(nodeSubmit))
	set("server.journal_records_per_job", node(server.MetricJournalRecords)/node(server.MetricSubmissions))
	set("server.replay_ms", median(f.newS)*1000)
	set("server.replayed_records", median(f.replayed))
	set("server.hit_ms_p50", median(nodeHit))
	set("server.repeat_reexec", reexec)
	set("server.rejected", node(server.MetricRejected))

	var gc gcUse
	gc.add(f.a, f.b)
	setProcessLayers(set, func(name string) float64 { return f.before.delta(f.after, "runtime", name) },
		float64(f.injected), gc)
	return m
}
