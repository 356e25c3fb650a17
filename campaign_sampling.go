package goldeneye

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"goldeneye/internal/inject"
	"goldeneye/internal/sampling"
)

// Per-index dispatch flags of a campaignSelection.
const (
	selExecute = 1 << iota // kept by the selection hash: runs a forward pass
	selPruned              // analytically masked: counted without inference
)

// campaignSelection is a sampled campaign's precomputed per-index dispatch:
// for every global injection index, the stratum its first flip classifies
// into and whether the index executes, is analytically pruned, or is skipped
// by the selection hash. It is a pure function of (config, seed, ranger
// bounds), so every execution path — serial, batched, parallel, sharded,
// fleet — computes the identical selection and the determinism contract of
// exhaustive campaigns carries over.
type campaignSelection struct {
	space   *sampling.Space
	plan    *sampling.Plan
	stratum []uint16
	flags   []uint8
}

// buildSelection classifies the campaign's full fault space and applies the
// sampling plan. It draws a fresh copy of the deterministic fault sequence
// (no forward passes), so the runner's own drawer is untouched. Returns nil
// when the campaign is exhaustive.
func (r *campaignRunner) buildSelection() *campaignSelection {
	plan := r.cfg.Sampling
	if !plan.Active() {
		return nil
	}
	sel := &campaignSelection{
		space:   sampling.NewSpace(r.injFormat, r.cfg.Site),
		plan:    plan,
		stratum: make([]uint16, r.cfg.Injections),
		flags:   make([]uint8, r.cfg.Injections),
	}
	// Pruning threshold: the target layer's calibrated activation bounds.
	// Every worker profiles the identical (deterministic) ranges, so the
	// mask — and with it the selection — is identical across workers.
	var mask uint64
	if plan.Prune && r.ranger != nil {
		if lo, hi, ok := r.ranger.Bounds(r.cfg.Layer); ok {
			mask = sampling.PruneMask(r.injFormat, float64(lo), float64(hi), plan.PruneEpsilon())
		}
	}
	drawer := newFaultDrawer(&r.cfg, r.geom)
	faults := make([]inject.Fault, r.geom.flips)
	for i := 0; i < r.cfg.Injections; i++ {
		drawer.nextInto(faults)
		st := sel.space.StratumOf(faults[0])
		sel.stratum[i] = uint16(st)
		switch {
		case mask != 0 && sampling.AllPrunable(faults, mask):
			sel.flags[i] = selPruned
		case sampling.Selected(r.cfg.Seed, i, plan.FractionFor(sel.space.Name(st))):
			sel.flags[i] = selExecute
		}
	}
	return sel
}

// executed reports whether global index i runs a forward pass. Nil-safe:
// without a selection every index executes.
func (sel *campaignSelection) executed(i int) bool {
	return sel == nil || sel.flags[i]&selExecute != 0
}

// executedCount returns the number of indices the selection keeps — the
// progress total of a sampled campaign.
func (sel *campaignSelection) executedCount() int {
	n := 0
	for _, f := range sel.flags {
		if f&selExecute != 0 {
			n++
		}
	}
	return n
}

// account folds the dispatch of the owned indices in [lo, hi) into rep:
// Drawn for every owned index, plus Pruned/Skipped for the ones that never
// execute. Executed/Aborted arrive later through observe, so a fully
// executed report satisfies Drawn = Pruned + Skipped + Executed + Aborted
// per stratum; a sequentially-stopped (or interrupted) one keeps Drawn
// above that sum — the selected-but-unexecuted mass is what holds the
// finite-population correction below one.
func (sel *campaignSelection) account(rep *sampling.Report, lo, hi int, owns func(int) bool) {
	for i := lo; i < hi; i++ {
		if !owns(i) {
			continue
		}
		s := &rep.Strata[sel.stratum[i]]
		s.Drawn++
		switch {
		case sel.flags[i]&selPruned != 0:
			s.Pruned++
		case sel.flags[i]&selExecute == 0:
			s.Skipped++
		}
	}
}

// observe folds one executed injection's outcome into rep's stratum
// moments. Aborted injections are counted but excluded from the moments,
// mirroring the campaign aggregates.
func (sel *campaignSelection) observe(rep *sampling.Report, i int, out InjectionOutcome) {
	s := &rep.Strata[sel.stratum[i]]
	if out.Aborted {
		s.Aborted++
		return
	}
	s.Executed++
	if out.Mismatch {
		s.Mismatch.Add(1)
	} else {
		s.Mismatch.Add(0)
	}
	s.DeltaLoss.Add(out.DeltaLoss)
}

// stopBounds returns the campaign's review boundaries: the sequence of
// global injection indices at which a sequentially-stopped campaign reviews
// its confidence interval, always ending at injections. Without a stopping
// target the campaign is a single window.
func stopBounds(plan *sampling.Plan, injections int) []int {
	if plan == nil || plan.TargetCI <= 0 {
		return []int{injections}
	}
	var bounds []int
	for b := plan.Interval(); b < injections; b += plan.Interval() {
		bounds = append(bounds, b)
	}
	return append(bounds, injections)
}

// ciBarrier runs a TargetCI campaign's sequential-stopping reviews. Its
// members — the campaign's in-process shards, or the single standalone run —
// execute their review windows in lockstep, and the last member to finish
// each round reviews the interval of every member's merged estimator state
// while the others are parked. Members that exit early — error,
// cancellation, abort threshold — must call leave exactly once so the
// remaining members' rounds still complete.
type ciBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	members int
	arrived int
	round   int
	stopAt  int
	bounds  []int
	target  float64

	// reports holds each member's live estimator by shard index. A member
	// writes its report only while running a window, so the review — run
	// under mu once every live member has arrived or left — reads settled
	// state.
	reports []*sampling.Report
}

// newCIBarrier builds a barrier over members shards reviewing at bounds
// (stopBounds) against the CI half-width target.
func newCIBarrier(members int, bounds []int, target float64) *ciBarrier {
	b := &ciBarrier{members: members, bounds: bounds, target: target, reports: make([]*sampling.Report, members)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish registers shard's live estimator state for the reviews.
func (b *ciBarrier) publish(shard int, rep *sampling.Report) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reports[shard] = rep
}

// await blocks until every live member has finished round r and returns the
// (possibly newly decided) stop boundary, 0 meaning keep going.
func (b *ciBarrier) await(r int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopAt > 0 {
		return b.stopAt
	}
	b.arrived++
	if b.arrived >= b.members {
		b.finishRound()
		return b.stopAt
	}
	for b.round <= r && b.stopAt == 0 {
		b.cond.Wait()
	}
	return b.stopAt
}

// finishRound reviews the finished round and releases it. Caller holds mu.
func (b *ciBarrier) finishRound() {
	b.stopAt = b.review()
	b.arrived = 0
	b.round++
	b.cond.Broadcast()
}

// review merges the members' estimators in shard order — the order
// MergeShardReports uses — and returns the round's boundary if the merged
// interval meets the target, else 0. The final boundary never stops: there
// is nothing left to cut short.
func (b *ciBarrier) review() int {
	bound := b.bounds[b.round]
	if bound >= b.bounds[len(b.bounds)-1] {
		return 0
	}
	var merged *sampling.Report
	for _, rep := range b.reports {
		if merged == nil {
			merged = rep.Clone()
			continue
		}
		// Same strata by construction; Merge cannot fail.
		_ = merged.Merge(rep)
	}
	if merged != nil && merged.CIHalfWidth() <= b.target {
		return bound
	}
	return 0
}

// leave removes one member from the barrier. If the remaining members were
// all waiting on the departing one, the round completes without it.
func (b *ciBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.members--
	if b.members > 0 && b.arrived >= b.members {
		b.finishRound()
	}
	b.cond.Broadcast()
}

// ParseSamplingPlan assembles and validates a sampling plan from CLI-style
// inputs: a default fraction, an optional "name=fraction,..." per-stratum
// override list, the pruning switch with its tolerance (0 = the plan's
// default), and a sequential-stopping CI target. Returns nil (no plan)
// when the inputs describe an exhaustive campaign.
func ParseSamplingPlan(fraction float64, strata string, prune bool, pruneEps, targetCI float64) (*sampling.Plan, error) {
	plan := &sampling.Plan{Fraction: fraction, Prune: prune, Epsilon: pruneEps, TargetCI: targetCI}
	if strata != "" {
		plan.Strata = make(map[string]float64)
		for _, part := range strings.Split(strata, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
			if len(kv) != 2 || kv[0] == "" {
				return nil, fmt.Errorf("goldeneye: stratum override %q is not name=fraction", part)
			}
			f, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return nil, fmt.Errorf("goldeneye: stratum override %q: %v", part, err)
			}
			plan.Strata[kv[0]] = f
		}
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Active() {
		return nil, nil
	}
	return plan, nil
}
