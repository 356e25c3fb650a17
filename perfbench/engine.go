package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/zoo"
)

// engineSpec is an in-process campaign workload. Every repetition loads
// the model from the zoo, wraps it and runs the same campaign, as a user
// of the library does once per campaign.
type engineSpec struct {
	model      string
	layer      int
	layerName  string // guards against a model whose layer order moved
	format     string
	injections int
	batch      int
	workers    int
	copies     int // identical campaigns run side by side, one per goroutine
	ranger     bool
	detectors  string
}

// cnnDeep is the GEMM/im2col-bound batched and parallel path: a fault
// deep in resnet_s, so most of each injected pass is the clean prefix.
var cnnDeep = engineSpec{
	model: "resnet_s", layer: 20, layerName: "resnet_s.s2b0.b.conv", format: "bfp_e5m5",
	injections: 1500, batch: 16, workers: 2, copies: 1, ranger: true,
}

// vitShallow is the serial path: one fault right after patch embedding,
// batch 1, one worker and three detectors, so the fixed cost of each
// pass dominates and the clean prefix is small. Two such campaigns run
// side by side, one per vCPU: with one of two vCPUs busy, run-to-run
// speed on a shared 2-vCPU VM wandered twice as much as with both busy.
var vitShallow = engineSpec{
	model: "vit_tiny", layer: 5, layerName: "vit_tiny.blk0.attn.qkv", format: "int8",
	injections: 1000, batch: 1, workers: 1, copies: 2, detectors: "ranger,sentinel,abft",
}

func (w engineSpec) config(seed uint64, pool *goldeneye.EvalPool) (goldeneye.CampaignConfig, error) {
	f, err := goldeneye.ParseFormat(w.format)
	if err != nil {
		return goldeneye.CampaignConfig{}, err
	}
	cfg := goldeneye.CampaignConfig{
		Format:     f,
		Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: f}},
		Site:       goldeneye.SiteValue,
		Target:     goldeneye.TargetNeuron,
		Layer:      w.layer,
		Injections: w.injections,
		Seed:       seed,
		Pool:       pool,
		BatchSize:  w.batch,
		UseRanger:  w.ranger,
	}
	if w.detectors != "" {
		if cfg.Detectors, err = goldeneye.ParseDetectors(w.detectors); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// campaignRun is one campaign's report and the time its set-up calls took.
type campaignRun struct {
	zoo, wrap time.Duration
	report    *goldeneye.CampaignReport
}

// campaign loads the model, wraps it and runs the campaign mkcfg builds
// through RunCampaignParallel, recording a span around each call. The
// first worker reuses the wrapped simulator; the others rebuild from the
// zoo, as local callers do.
func (w engineSpec) campaign(ctx context.Context, e *env, tr *tracer, job string, parent int64,
	mkcfg func(*goldeneye.EvalPool) (goldeneye.CampaignConfig, error)) (*campaignRun, error) {
	if err := requireCached(e.zooDir, w.model); err != nil {
		return nil, err
	}
	var run campaignRun
	var model goldeneye.Module
	var ds *dataset.Dataset
	t0 := time.Now()
	err := tr.timed(parent, job, "zoo.load", func() (err error) {
		model, ds, err = zoo.PretrainedIn(e.zooDir, w.model)
		return err
	})
	run.zoo = time.Since(t0)
	if err != nil {
		return nil, err
	}
	var sim *goldeneye.Simulator
	t1 := time.Now()
	err = tr.timed(parent, job, "sim.wrap", func() (err error) {
		sim, err = goldeneye.NewSimulator(model, ds.ValX.Slice(0, 1))
		return err
	})
	run.wrap = time.Since(t1)
	if err != nil {
		return nil, err
	}
	pool, err := goldeneye.NewEvalPool(ds.ValX, ds.ValY, 0)
	if err != nil {
		return nil, err
	}
	var first sync.Once
	build := func() (*goldeneye.Simulator, error) {
		var s *goldeneye.Simulator
		first.Do(func() { s = sim })
		if s != nil {
			return s, nil
		}
		m, err := zoo.PretrainedOn(e.zooDir, w.model, ds)
		if err != nil {
			return nil, err
		}
		return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
	}
	if got := layerName(sim, w.layer); got != w.layerName {
		return nil, fmt.Errorf("%s layer %d is %q, want %q", w.model, w.layer, got, w.layerName)
	}
	cfg, err := mkcfg(pool)
	if err != nil {
		return nil, err
	}
	err = tr.timed(parent, job, "campaign", func() error {
		run.report, err = goldeneye.RunCampaignParallel(ctx, cfg, w.workers, build)
		return err
	})
	if err != nil {
		return nil, err
	}
	if run.report.Interrupted {
		return nil, ctx.Err()
	}
	return &run, nil
}

func layerName(sim *goldeneye.Simulator, index int) string {
	for _, l := range sim.Layers() {
		if l.Index == index {
			return l.Name
		}
	}
	return ""
}

// canonical is a report's wire encoding with the batch size cleared: the
// batch size is the one config field a batched run and its batch-1
// reference legitimately differ in.
func canonical(rep *goldeneye.CampaignReport) ([]byte, error) {
	r := *rep
	r.Config.BatchSize = 0
	return json.Marshal(&r)
}

// reference is the batch-1 run of the same campaign at the same worker
// count: the byte-identity contract says a batched report must match it.
func (w engineSpec) reference(ctx context.Context, e *env) ([]byte, error) {
	run, err := w.campaign(ctx, e, nil, "", 0, func(p *goldeneye.EvalPool) (goldeneye.CampaignConfig, error) {
		cfg, err := w.config(e.seed, p)
		cfg.BatchSize = 1
		return cfg, err
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return canonical(run.report)
}

// copyRun is one campaign of a repetition.
type copyRun struct {
	setup, zoo, wrap, prep, job float64 // seconds
	inj                         int     // injections after its first progress
	phase                       time.Duration
	regA, regB                  map[string]telemetry.Metric // traced only
}

// engineRep is one measured repetition: w.copies campaigns side by side.
type engineRep struct {
	traced   bool
	copies   []copyRun
	ph       *phase
	rss      float64
	rtA, rtB map[string]telemetry.Metric // runtime collectors at phase open and close (traced only)
}

func (w engineSpec) run(ctx context.Context, e *env, tr *tracer) (*outcome, error) {
	ref, err := w.reference(ctx, e)
	if err != nil {
		return nil, err
	}
	freeMemory()
	out := &outcome{}
	var plain, traced []engineRep
	var counts string
	start := time.Now()
	for i := 0; time.Since(start) < e.window || i < 2; i++ {
		// A traced run alternates untraced and traced repetitions, so the
		// tracing overhead compares neighbours, not passes minutes apart.
		rtr := tr
		if i%2 == 0 {
			rtr = nil
		}
		job := "rep-" + strconv.Itoa(i)
		r, reports, err := w.rep(ctx, e, rtr, job)
		if err != nil {
			return nil, err
		}
		for _, rep := range reports {
			out.attempted++
			got, err := canonical(rep)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(got, ref) {
				out.failed++
				fmt.Printf("%s: %v\n got %s\nwant %s\n", job, errWrongReport, got, ref)
			}
			counts = fmt.Sprintf(`{"counts":{"injections":%d,"mismatches":%d,"detected":%d,"aborted":%d}}`,
				rep.Injections, rep.Mismatches, rep.Detected, rep.Aborted)
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	fmt.Println(counts)
	fmt.Printf(`{"reps":%d,"traced_reps":%d}`+"\n", len(plain)+len(traced), len(traced))
	if tr == nil {
		out.endToEnd = w.endToEnd(plain)
		return out, nil
	}
	out.endToEnd, out.tracedEndToEnd = w.endToEnd(plain), w.endToEnd(traced)
	out.perLayer = w.perLayer(traced)
	return out, nil
}

// rep runs one repetition, traced when tr is non-nil, and returns its
// campaigns' reports.
func (w engineSpec) rep(ctx context.Context, e *env, tr *tracer, job string) (engineRep, []*goldeneye.CampaignReport, error) {
	r := engineRep{traced: tr != nil, copies: make([]copyRun, w.copies)}
	root := tr.beginJob(job)
	defer tr.endJob()
	var rt *telemetry.Registry
	if tr != nil {
		rt = telemetry.NewRegistry()
		goldeneye.RegisterRuntimeCollectors(rt)
	}
	snap := func(dst *map[string]telemetry.Metric) func() {
		return func() {
			if rt != nil {
				*dst = byName(rt.Snapshot())
			}
		}
	}
	r.ph = newPhase(w.copies, snap(&r.rtA), snap(&r.rtB))
	if err := resetPeakRSS(); err != nil {
		return r, nil, err
	}
	t0 := time.Now()
	reports := make([]*goldeneye.CampaignReport, w.copies)
	errs := make([]error, w.copies)
	var wg sync.WaitGroup
	for c := range r.copies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reports[c], errs[c] = w.copyRun(ctx, e, tr, job, root, c, &r)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return r, nil, err
		}
	}
	var err error
	if r.rss, err = peakRSS(); err != nil {
		return r, nil, err
	}
	tr.add(root, 0, job, "rep", t0, 0)
	return r, reports, nil
}

// endToEnd derives the end-to-end figures from reps.
func (w engineSpec) endToEnd(reps []engineRep) map[string]metric {
	var setups, jobs, allocs, rss, rates, cpuMs []float64
	for _, r := range reps {
		for _, c := range r.copies {
			setups = append(setups, c.setup)
			jobs = append(jobs, c.job)
		}
		if r.ph.injB > r.ph.injA {
			allocs = append(allocs, float64(r.ph.b.alloc-r.ph.a.alloc)/1024/float64(r.ph.injB-r.ph.injA))
		}
		rss = append(rss, r.rss)
		rates = append(rates, r.ph.sl.rates...)
		cpuMs = append(cpuMs, r.ph.sl.cpuMs...)
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"inj_per_s":        {median(rates), "1/s"},
		"cpu_ms_per_inj":   {median(cpuMs), "ms"},
		"alloc_kb_per_inj": {median(allocs), "KiB"},
		"max_rss_mb":       {median(rss), "MiB"},
		"job_s_p50":        {median(jobs), "s"},
	}
}

// copyRun runs campaign c of a repetition and records its timings in
// r.copies[c].
func (w engineSpec) copyRun(ctx context.Context, e *env, tr *tracer, job string, root int64,
	c int, r *engineRep) (*goldeneye.CampaignReport, error) {
	cr := &r.copies[c]
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	var first time.Time
	t0 := time.Now()
	run, err := w.campaign(ctx, e, tr, job, root, func(p *goldeneye.EvalPool) (goldeneye.CampaignConfig, error) {
		cfg, err := w.config(e.seed, p)
		cfg.Metrics = reg
		// Workers report concurrently; the phase lock orders the callbacks.
		cfg.Progress = func(done, _ int) {
			r.ph.progress(c, done, func() {
				first = time.Now()
				cr.inj = w.injections - done
				if reg != nil {
					cr.regA = byName(reg.Snapshot())
				}
			})
		}
		return cfg, err
	})
	if err != nil {
		return nil, err
	}
	r.ph.finish()
	end := time.Now()
	if reg != nil {
		cr.regB = byName(reg.Snapshot())
	}
	cr.setup = first.Sub(t0).Seconds()
	cr.zoo, cr.wrap = run.zoo.Seconds(), run.wrap.Seconds()
	cr.prep = cr.setup - cr.zoo - cr.wrap
	cr.job = end.Sub(t0).Seconds()
	cr.phase = end.Sub(first)
	return run.report, nil
}

func byName(ms []telemetry.Metric) map[string]telemetry.Metric {
	out := make(map[string]telemetry.Metric, len(ms))
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// layerKinds maps the nn layer kinds to the per-layer metric they count
// toward.
var layerKinds = map[string]string{
	"conv": "nn.conv_us_per_inj", "linear": "nn.linear_us_per_inj",
	"attention": "nn.attention_us_per_inj", "batchnorm": "nn.norm_us_per_inj",
	"layernorm": "nn.norm_us_per_inj", "activation": "nn.act_us_per_inj",
}

type layerTime struct {
	index      int
	name, kind string
	total      float64 // seconds, children included
	passes     int64
}

// forwardTimes parses the per-layer forward-time histograms into the
// time each layer spent during the injection phase (b minus a).
func forwardTimes(a, b map[string]telemetry.Metric) []layerTime {
	var out []layerTime
	for name, mb := range b {
		label, ok := strings.CutPrefix(name, goldeneye.ForwardSecondsMetric+`{layer="`)
		if !ok {
			continue
		}
		label = strings.TrimSuffix(label, `"}`)
		idx, rest, _ := strings.Cut(label, ":")
		open := strings.LastIndex(rest, "(")
		i, err := strconv.Atoi(idx)
		if err != nil || open < 0 {
			continue
		}
		ma := a[name]
		out = append(out, layerTime{index: i, name: rest[:open], kind: strings.TrimSuffix(rest[open+1:], ")"),
			total: mb.Sum - ma.Sum, passes: mb.Count - ma.Count})
	}
	return out
}

// selfTimes subtracts each composite layer's children (layers whose name
// extends the parent's by a dotted suffix) from its time.
func selfTimes(layers []layerTime) map[int]float64 {
	self := make(map[int]float64, len(layers))
	for _, l := range layers {
		self[l.index] += l.total
		parent, plen := -1, 0
		for _, p := range layers {
			if strings.HasPrefix(l.name, p.name+".") && len(p.name) > plen {
				parent, plen = p.index, len(p.name)
			}
		}
		if parent >= 0 {
			self[parent] -= l.total
		}
	}
	return self
}

// isAncestor reports whether layer a encloses layer b.
func isAncestor(layers []layerTime, a, b int) bool {
	var an, bn string
	for _, l := range layers {
		if l.index == a {
			an = l.name
		}
		if l.index == b {
			bn = l.name
		}
	}
	return strings.HasPrefix(bn, an+".")
}

func (w engineSpec) perLayer(reps []engineRep) map[string]metric {
	var inj, passes, wallWorkers, fwd, prefix float64
	var occSum, occCount float64
	var zoos, wraps, preps, calibs, skews []float64
	kinds := map[string]float64{}
	for _, r := range reps {
		for _, c := range r.copies {
			inj += float64(c.inj)
			wallWorkers += c.phase.Seconds() * float64(w.workers)
			layers := forwardTimes(c.regA, c.regB)
			self := selfTimes(layers)
			for _, l := range layers {
				s := self[l.index]
				fwd += s
				if k, ok := layerKinds[l.kind]; ok {
					kinds[k] += s
				}
				if l.index < w.layer && !isAncestor(layers, l.index, w.layer) {
					prefix += s
				}
				if l.index == 0 {
					passes += float64(l.passes)
				}
			}
			occ := goldeneye.MetricCampaignOccupancy
			occSum += c.regB[occ].Sum - c.regA[occ].Sum
			occCount += float64(c.regB[occ].Count - c.regA[occ].Count)
			zoos, wraps, preps = append(zoos, c.zoo), append(wraps, c.wrap), append(preps, c.prep)
			calibs = append(calibs, c.regB[goldeneye.MetricCampaignCalibration].Sum)
			skews = append(skews, shardSkew(c.regB))
		}
	}
	// The runtime collectors and GC counters are process-wide, so they
	// are read over the phase in which every campaign was injecting.
	var phaseInj float64
	var gc gcUse
	for _, r := range reps {
		if r.ph.injB > r.ph.injA {
			phaseInj += float64(r.ph.injB - r.ph.injA)
			gc.add(r.ph.a, r.ph.b)
		}
	}
	delta := func(name string) float64 {
		var n float64
		for _, r := range reps {
			if r.ph.injB > r.ph.injA {
				n += r.rtB[name].Value - r.rtA[name].Value
			}
		}
		return n
	}
	us := func(sec float64) float64 { return sec / inj * 1e6 }
	m := zeroLayerMetrics()
	set := setter(m)
	set("zoo.load_s", median(zoos))
	set("sim.wrap_s", median(wraps))
	set("campaign.prep_s", median(preps))
	set("campaign.passes_per_inj", passes/inj)
	set("campaign.batch_occupancy", occSum/occCount)
	set("campaign.shard_skew", median(skews))
	set("campaign.self_us_per_inj", us(wallWorkers-fwd))
	set("detect.calib_s", median(calibs))
	set("nn.forward_us_per_inj", us(fwd))
	for k, v := range kinds {
		set(k, us(v))
	}
	set("nn.prefix_frac", prefix/fwd)
	setProcessLayers(set, delta, phaseInj, gc)
	return m
}

// shardSkew is the slowest worker's wall time over the fastest's; 1 for
// a serial campaign.
func shardSkew(reg map[string]telemetry.Metric) float64 {
	lo, hi := 0.0, 0.0
	for name, m := range reg {
		if !inFamily(name, goldeneye.MetricCampaignShardTime) {
			continue
		}
		if lo == 0 || m.Value < lo {
			lo = m.Value
		}
		hi = max(hi, m.Value)
	}
	if lo == 0 {
		return 1
	}
	return hi / lo
}
