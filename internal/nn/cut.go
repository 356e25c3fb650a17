package nn

import (
	"fmt"

	"goldeneye/internal/tensor"
)

// CutPlan is the clean-prefix reuse plan of one (model, fault layer) pair.
// A fault at layer L can only change what is downstream of L, so every
// Apply whose input is clean and whose subtree does not contain L computes
// the same values in every injected pass over a given sample. An injected
// pass that has those values cached need not recompute them: it can start
// at the fault layer.
//
// The plan is built from one probe pass (PlanCut). It numbers every Apply
// in call order, containers included, and marks one *clean* when its input
// is clean — the model input, or by pointer identity the output of another
// clean Apply — and its subtree does not contain L. That covers the
// visit-order prefix and also residual branches that are not downstream of
// the fault. A clean Apply whose parent is not clean is *skipped* in a
// replayed pass: it runs no module code, fires no hooks, and advances the
// visit counter over its subtree so layer indices stay stable.
//
// The *frontier* is the set of skipped outputs the rest of the pass
// actually reads: those handed to an Apply that runs and reads its input
// (any non-container module, or a container that reads its input outside
// ctx.Apply), and those no later Apply takes as input, which only the
// parent's own code can read. A recording pass copies the frontier out
// (Context.RecordCut) and a replayed pass returns it from the skipped
// Applys (Context.ReplayCut). Skipped outputs that are not on the frontier
// come back nil.
//
// Two properties of the composite modules make this exact. A container
// that reads its input outside ctx.Apply says so by not implementing
// inputRouter. And no composite module both passes a child's output to
// another Apply and reads it in its own code. Every composite in this
// package holds to both; the replay tests check it at every layer of
// resnet_s, vit_tiny and mlp.
//
// Values are captured after all of a layer's post hooks ran, so hooks that
// rewrite activations (format emulation, clamping) are part of the cached
// values; hooks that only observe (detectors, timers) do not see skipped
// layers in a replayed pass. A plan is immutable and safe to share.
type CutPlan struct {
	layer   int
	nodes   []cutNode
	slots   []cutSlot
	rowLen  int
	skipped []bool // by layer index
}

// cutNode is one Apply of the probe pass.
type cutNode struct {
	name   string
	span   int  // Applys in the subtree, this one included
	visits int  // layer indices the subtree consumes
	skip   bool // clean with a parent that is not: a replayed pass returns here
	slot   int  // frontier slot of the output, or -1
}

// cutSlot is one frontier tensor: its batch-1 shape and where its floats
// sit in a sample's frontier row.
type cutSlot struct {
	shape []int
	off   int
	n     int
}

// probeNode is the probe pass's view of one Apply.
type probeNode struct {
	name       string
	parent     int
	in, out    *tensor.Tensor
	v0, v1     int // layer indices [v0, v1) of the subtree
	end        int // one past the last Apply of the subtree
	clean      bool
	readsInput bool // non-container, or a container that reads its input itself
}

// inputRouter is implemented by containers that may read their input only
// by handing it to child Applys; routesInput reports whether this instance
// does. Containers that do not implement it are assumed to read their input
// in their own code (a transformer block's residual add, for example).
type inputRouter interface {
	routesInput() bool
}

func (s *Sequential) routesInput() bool { return true }

// routesInput: with a projection the skip path is an Apply too; an identity
// skip adds the input itself.
func (r *Residual) routesInput() bool { return r.proj != nil }

// cutRun is a context's per-pass state for a plan: the probe that builds
// it, or a recording or replayed pass that uses it.
type cutRun struct {
	probe *cutProbe // non-nil during PlanCut; the fields below are unused then

	plan   *CutPlan
	replay bool
	next   int // the next Apply's node index
	rows   int
	buf    []float32
	front  []*tensor.Tensor // replay: slot views over buf
}

type cutProbe struct {
	layer  int
	nodes  []probeNode
	cur    int
	clean  map[*tensor.Tensor]bool
	inputs map[*tensor.Tensor]int // tensor → Applys that take it as input
}

// PlanCut runs one probe pass of m on x, a single sample, and returns the
// clean-prefix plan for faults at layer index layer. It returns nil when the
// pass never visits layer or nothing before the fault can be skipped.
func PlanCut(m Module, x *tensor.Tensor, layer int) *CutPlan {
	if x.Dim(0) != 1 {
		panic(fmt.Sprintf("nn: PlanCut probes one sample, got batch %d", x.Dim(0)))
	}
	p := &cutProbe{
		layer:  layer,
		cur:    -1,
		clean:  map[*tensor.Tensor]bool{x: true},
		inputs: make(map[*tensor.Tensor]int),
	}
	ctx := &Context{cut: &cutRun{probe: p}}
	Forward(ctx, m, x)
	return p.plan()
}

func (p *cutProbe) apply(c *Context, m Module, x *tensor.Tensor) *tensor.Tensor {
	id := len(p.nodes)
	reads := true
	if r, ok := m.(inputRouter); ok && m.Kind() == KindContainer {
		reads = !r.routesInput()
	}
	p.nodes = append(p.nodes, probeNode{name: m.Name(), parent: p.cur, in: x, v0: c.visit, readsInput: reads})
	p.inputs[x]++
	saved := p.cur
	p.cur = id
	y := c.visitModule(m, x)
	p.cur = saved
	n := &p.nodes[id]
	n.out, n.v1, n.end = y, c.visit, len(p.nodes)
	n.clean = p.clean[x] && !(n.v0 <= p.layer && p.layer < n.v1)
	if n.clean {
		p.clean[y] = true
	}
	return y
}

// plan derives the skips and the frontier from the probe.
func (p *cutProbe) plan() *CutPlan {
	if len(p.nodes) == 0 || p.nodes[0].clean {
		return nil // the pass never reaches the fault layer
	}
	plan := &CutPlan{layer: p.layer, nodes: make([]cutNode, len(p.nodes)), skipped: make([]bool, p.nodes[0].v1)}
	// Outputs that an Apply running in a replayed pass reads. Nodes come
	// in call order, so a parent precedes its children.
	read := make(map[*tensor.Tensor]bool)
	runs := make([]bool, len(p.nodes))
	for i, n := range p.nodes {
		skip := n.clean && (n.parent < 0 || !p.nodes[n.parent].clean)
		plan.nodes[i] = cutNode{name: n.name, span: n.end - i, visits: n.v1 - n.v0, skip: skip, slot: -1}
		runs[i] = !n.clean && (n.parent < 0 || runs[n.parent])
		if runs[i] && n.readsInput {
			read[n.in] = true
		}
	}
	skips := 0
	for i, n := range p.nodes {
		pn := &plan.nodes[i]
		if !pn.skip {
			continue
		}
		skips++
		for v := n.v0; v < n.v1; v++ {
			plan.skipped[v] = true
		}
		if read[n.out] || p.inputs[n.out] == 0 {
			pn.slot = len(plan.slots)
			plan.slots = append(plan.slots, cutSlot{shape: n.out.Shape(), off: plan.rowLen, n: n.out.Len()})
			plan.rowLen += n.out.Len()
		}
	}
	if skips == 0 {
		return nil
	}
	return plan
}

// RowLen returns the frontier's size in floats per sample.
func (p *CutPlan) RowLen() int { return p.rowLen }

// Skips reports whether a replayed pass skips layer index i.
func (p *CutPlan) Skips(i int) bool { return i >= 0 && i < len(p.skipped) && p.skipped[i] }

// Frontier renders the frontier as "name[shape]" entries, for diagnostics.
func (p *CutPlan) Frontier() []string {
	var out []string
	for _, n := range p.nodes {
		if n.slot >= 0 {
			out = append(out, fmt.Sprintf("%s%v", n.name, p.slots[n.slot].shape))
		}
	}
	return out
}

// A frontier buffer for a pass of rows samples is slot-major: slot s holds
// rows×n_s floats starting at rows×off_s, sample k's part at row k of it.
// A sample's frontier row (what a cache keeps) is the slots concatenated.

// StoreRow copies sample k's frontier out of a rows-sample buffer into row
// (RowLen floats).
func (p *CutPlan) StoreRow(row, buf []float32, rows, k int) {
	for _, s := range p.slots {
		copy(row[s.off:s.off+s.n], buf[rows*s.off+k*s.n:])
	}
}

// LoadRow copies one sample's frontier row into sample k of a rows-sample
// buffer.
func (p *CutPlan) LoadRow(buf, row []float32, rows, k int) {
	for _, s := range p.slots {
		copy(buf[rows*s.off+k*s.n:rows*s.off+(k+1)*s.n], row[s.off:s.off+s.n])
	}
}

// RecordCut arms the context's next pass to copy the frontier of its rows
// samples into buf (rows×RowLen floats) as each frontier layer returns,
// after its post hooks ran. The pass itself runs in full.
func (c *Context) RecordCut(p *CutPlan, rows int, buf []float32) {
	c.cut = &cutRun{plan: p, rows: rows, buf: buf[:rows*p.rowLen]}
}

// ReplayCut arms the context's next pass to skip the plan's clean Applys,
// returning the frontier of its rows samples from buf (rows×RowLen floats,
// laid out as RecordCut fills it). The pass may modify buf.
func (c *Context) ReplayCut(p *CutPlan, rows int, buf []float32) {
	front := make([]*tensor.Tensor, len(p.slots))
	for i, s := range p.slots {
		shape := append([]int{rows * s.shape[0]}, s.shape[1:]...)
		front[i] = tensor.Wrap(buf[rows*s.off:rows*(s.off+s.n)], shape...)
	}
	c.cut = &cutRun{plan: p, replay: true, rows: rows, buf: buf, front: front}
}

func (r *cutRun) apply(c *Context, m Module, x *tensor.Tensor) *tensor.Tensor {
	if r.probe != nil {
		return r.probe.apply(c, m, x)
	}
	p := r.plan
	if r.next >= len(p.nodes) || p.nodes[r.next].name != m.Name() {
		panic(fmt.Sprintf("nn: cut plan for layer %d does not match the pass at Apply %d (%s)", p.layer, r.next, m.Name()))
	}
	n := p.nodes[r.next]
	if r.replay && n.skip {
		r.next += n.span
		c.visit += n.visits
		if n.slot < 0 {
			return nil
		}
		return r.front[n.slot]
	}
	r.next++
	y := c.visitModule(m, x)
	if n.slot >= 0 && !r.replay {
		s := p.slots[n.slot]
		if y.Len() != r.rows*s.n {
			panic(fmt.Sprintf("nn: frontier %s has %d floats, want %d×%d", n.name, y.Len(), r.rows, s.n))
		}
		copy(r.buf[r.rows*s.off:r.rows*(s.off+s.n)], y.Data())
	}
	return y
}
