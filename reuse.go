package goldeneye

import (
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/nn"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/tensor"
)

// prefixCache is a runner's clean-prefix reuse state (see nn.CutPlan): the
// cut plan for the campaign's fault layer and the frontier activations of
// the pool samples the runner injects. A group whose rows are all cached
// replays them and starts at the fault layer, and so does its
// DMR/re-execution pass.
//
// The cache fills during set-up, from the fault-free sweep that already
// runs every pool sample through an injected pass's hooks minus the
// injection, so it costs copies, not passes. With a detection pipeline
// that is the false-positive sweep. Without one it is the reference
// sweep, which lacks only the legacy range clamp (UseRanger); a row the
// clamp would change at a skipped layer stays uncached.
//
// All float storage comes from campaignArena and goes back in release.
// The cache rows live in chunks of cacheChunk floats, so the arena's
// power-of-two size classes waste at most one partly filled chunk instead
// of up to half of one large buffer.
type prefixCache struct {
	plan     *nn.CutPlan
	rowLen   int
	entry    []int       // pool sample → cache row, -1 when the runner never injects it
	have     []bool      // by cache row: the frontier is cached
	chunks   [][]float32 // the cache rows, perChunk to a chunk
	perChunk int
	group    []float32 // a sweep group's recorded frontier
	replay   []float32 // the frontier a replayed pass reads and may modify
	reused   *telemetry.Counter

	// watch is the recorder of the sweep pass in flight (see sweep).
	watch *detect.Recorder
}

// newPrefixCache returns the reuse state for the runner's executed
// indices, or nil when reuse cannot pay or cannot apply: no pool sample
// recurs among them (so nothing cached would be read back), the campaign
// corrupts weights (a weight fault is shared state, so those campaigns
// keep the full pass), or nothing before the fault layer can be skipped.
func (r *campaignRunner) newPrefixCache() *prefixCache {
	cfg := &r.cfg
	if cfg.Target == inject.TargetWeight {
		return nil
	}
	n := r.pool.Len()
	entry := make([]int, n)
	for i := range entry {
		entry[i] = -1
	}
	// Without sampling, the samples of a stride shard repeat every n·K
	// indices, so two such periods show every sample it injects and whether
	// any recurs; set-up stays independent of the injection count.
	end := cfg.Injections
	if r.sel == nil {
		end = min(end, cfg.resumedPrefix()+2*n*max(1, cfg.ShardCount))
	}
	rows, recurs := 0, false
	for i := cfg.resumedPrefix(); i < end; i++ {
		if !r.executes(i) {
			continue
		}
		s := i % n
		if entry[s] >= 0 {
			recurs = true
			continue
		}
		entry[s] = rows
		rows++
	}
	if !recurs {
		return nil
	}
	plan := nn.PlanCut(r.sim.model, r.pool.X.Slice(0, 1), r.cfg.Layer)
	if plan == nil || plan.RowLen() == 0 {
		return nil
	}
	rowLen := plan.RowLen()
	pc := &prefixCache{
		plan:     plan,
		rowLen:   rowLen,
		entry:    entry,
		have:     make([]bool, rows),
		perChunk: max(1, cacheChunk/rowLen),
		group:    campaignArena.Get(r.batch * rowLen),
		replay:   campaignArena.Get(r.batch * rowLen),
	}
	for left := rows; left > 0; left -= pc.perChunk {
		pc.chunks = append(pc.chunks, campaignArena.Get(min(left, pc.perChunk)*rowLen))
	}
	if r.cfg.Metrics != nil {
		pc.reused = r.cfg.Metrics.Counter(MetricCampaignPrefixReused)
	}
	return pc
}

// cacheChunk is the size in floats of one cache chunk (256 KiB).
const cacheChunk = 1 << 16

// row returns cache row e.
func (pc *prefixCache) row(e int) []float32 {
	off := (e % pc.perChunk) * pc.rowLen
	return pc.chunks[e/pc.perChunk][off : off+pc.rowLen]
}

// release returns the cache's storage to the arena. Nil-safe.
func (pc *prefixCache) release() {
	if pc == nil {
		return
	}
	for _, c := range pc.chunks {
		campaignArena.Put(c)
	}
	campaignArena.Put(pc.group)
	campaignArena.Put(pc.replay)
	*pc = prefixCache{}
}

// sweep runs one pass of a fault-free set-up sweep over the pool samples
// [lo, lo+rows) of x on ctx and returns its output. On the way it caches
// the frontier of every sample the runner injects, except rows rec
// flagged or marked non-finite: a replayed pass would not raise an event
// at a layer it skips again. In a fault-free sweep any flag is a false
// positive, which the detectors are calibrated not to raise, so a row
// flagged at a layer a replay runs is left out too rather than told
// apart. The reference sweep's rec also carries clampWatch's marks. rec
// may be nil; a nil cache only runs the pass.
func (pc *prefixCache) sweep(ctx *nn.Context, m nn.Module, x *tensor.Tensor, lo int, rec *detect.Recorder) *tensor.Tensor {
	if pc == nil {
		return nn.Forward(ctx, m, x)
	}
	rows := x.Dim(0)
	if rec == nil {
		rec = detect.NewRecorder(rows)
	}
	ctx.RecordCut(pc.plan, rows, pc.group)
	pc.watch = rec
	y := nn.Forward(ctx, m, x)
	pc.watch = nil
	for k := 0; k < rows; k++ {
		if e := pc.entry[lo+k]; e >= 0 && !rec.RowFlagged(k) && rec.FirstNonFiniteLayer(k) < 0 {
			pc.plan.StoreRow(pc.row(e), pc.group, rows, k)
			pc.have[e] = true
		}
	}
	return y
}

// clampWatch is the reference sweep's stand-in for the legacy range clamp:
// instead of clamping, it flags each row the clamp would change at a
// skipped layer, whose values therefore differ in an injected pass.
func (pc *prefixCache) clampWatch(p *inject.RangeProfile) nn.HookFunc {
	return func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		lo, hi, ok := p.Bounds(info.Index)
		if pc.watch == nil || !ok || !pc.plan.Skips(info.Index) {
			return t
		}
		data := t.Data()
		rows := pc.watch.Rows()
		per := len(data) / rows
		for k := 0; k < rows; k++ {
			for _, v := range data[k*per : (k+1)*per] {
				if !(v >= lo && v <= hi) { // NaN too: the clamp maps it to hi
					pc.watch.Flag("clamp", info.Index, k)
					break
				}
			}
		}
		return t
	}
}

// hit reports whether a group of injected rows over samples can replay the
// cached prefix. Nil-safe. Every row must be cached, and the group must be
// on the path the cache was filled on: one-row groups in a serial
// campaign, multi-row groups in a batched one. A one-row group in a
// batched campaign — a ragged tail, or the one-row fallback after a
// recovered batched panic — runs under tensor-wide rather than per-row
// metadata, which need not reproduce the cached rows.
func (pc *prefixCache) hit(samples []int, batch int) bool {
	if pc == nil || (len(samples) > 1) != (batch > 1) {
		return false
	}
	for _, s := range samples {
		if e := pc.entry[s]; e < 0 || !pc.have[e] {
			return false
		}
	}
	return true
}

// replayed counts the rows of an injected pass that completed a replay.
func (pc *prefixCache) replayed(rows int) {
	if pc.reused != nil {
		pc.reused.Add(int64(rows))
	}
}

// replayInto arms ctx to replay the cached frontier of samples, assembled
// into a fresh replay buffer: the injected pass may modify the buffer, and
// its re-execution must read the clean values again.
func (pc *prefixCache) replayInto(ctx *nn.Context, samples []int) {
	rows := len(samples)
	for k, s := range samples {
		pc.plan.LoadRow(pc.replay, pc.row(pc.entry[s]), rows, k)
	}
	ctx.ReplayCut(pc.plan, rows, pc.replay)
}
