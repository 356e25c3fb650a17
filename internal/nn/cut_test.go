package nn_test

import (
	"math"
	"reflect"
	"testing"

	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/numfmt"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// cutHooks is a campaign-shaped hook set: BFP activation emulation on the
// default layers (per row when batched, fused where the layer fuses), a
// range clamp on every layer that rewrites its output in place, a fault at
// layer that depends on delta, and a recorder of the visited indices.
func cutHooks(rows, layer int, delta float32, visits *[]int) *nn.HookSet {
	f := numfmt.BFPe5m5()
	axis, emulate := numfmt.AxisTensor, f.Emulate
	if rows > 1 {
		axis = numfmt.AxisBatch
		emulate = func(t *tensor.Tensor) *tensor.Tensor { return numfmt.EmulateBatched(f, t) }
	}
	h := nn.NewHookSet()
	h.PostForwardEpilogue(nn.DefaultLayers(), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		return emulate(t)
	}, numfmt.EmulateEpilogue(f, axis))
	h.PostForward(nn.ByIndex(layer), func(_ nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		d := t.Data()
		per := len(d) / rows
		for k := 0; k < rows; k++ {
			d[k*per+(k*7)%per] += delta
		}
		return t
	})
	h.PostForward(nn.AllLayers(), func(info nn.LayerInfo, t *tensor.Tensor) *tensor.Tensor {
		*visits = append(*visits, info.Index)
		t.ApplyInPlace(func(v float32) float32 { return max(-1.5, min(1.5, v)) })
		return t
	})
	return h
}

func bitsEqual(a, b *tensor.Tensor) bool {
	if !reflect.DeepEqual(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestCutReplayMatchesForward is the replay contract on resnet_s (residual
// blocks with identity and projected skips), vit_tiny (transformer blocks)
// and mlp, all random init, at every layer index as the fault layer, at
// batch 1 and 4. A pass that records the frontier under one fault,
// replayed under another, equals the full forward pass under the second
// fault bit for bit, and its hooks see exactly the layers the plan does not
// skip. At batch 4 the replayed rows are reassembled from per-sample rows
// in reverse order, as a campaign assembles a group from its cache.
func TestCutReplayMatchesForward(t *testing.T) {
	for _, name := range []string{"resnet_s", "vit_tiny", "mlp"} {
		m, err := models.Build(name, 10, 3)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(rng.New(5), 1, 4, models.InChannels, models.InHeight, models.InWidth)
		rev := tensor.Gather0(x, []int{3, 2, 1, 0})
		layers := nn.Trace(m, x.Slice(0, 1))
		plans := 0
		for _, l := range layers {
			plan := nn.PlanCut(m, x.Slice(0, 1), l.Index)
			if plan == nil {
				continue
			}
			plans++
			for _, rows := range []int{1, 4} {
				in, out := x.Slice(0, rows), rev.Slice(4-rows, 4)
				var full, seen []int
				want := nn.Forward(nn.NewContext(cutHooks(rows, l.Index, 3, &full)), m, out)

				buf := make([]float32, rows*plan.RowLen())
				var rec []int
				ctx := nn.NewContext(cutHooks(rows, l.Index, -2, &rec))
				ctx.RecordCut(plan, rows, buf)
				recorded := nn.Forward(ctx, m, in)
				if plain := nn.Forward(nn.NewContext(cutHooks(rows, l.Index, -2, &rec)), m, in); !bitsEqual(recorded, plain) {
					t.Fatalf("%s layer %d batch %d: recording changed the pass", name, l.Index, rows)
				}

				// Cache per sample, then assemble the reversed group.
				cache := make([][]float32, rows)
				for k := range cache {
					cache[k] = make([]float32, plan.RowLen())
					plan.StoreRow(cache[k], buf, rows, k)
				}
				group := make([]float32, rows*plan.RowLen())
				for k := range cache {
					plan.LoadRow(group, cache[rows-1-k], rows, k)
				}
				ctx = nn.NewContext(cutHooks(rows, l.Index, 3, &seen))
				ctx.ReplayCut(plan, rows, group)
				got := nn.Forward(ctx, m, out)
				if !bitsEqual(got, want) {
					t.Fatalf("%s layer %d batch %d: replay diverges from the full pass (frontier %v)",
						name, l.Index, rows, plan.Frontier())
				}
				var unskipped []int
				for _, v := range full {
					if !plan.Skips(v) {
						unskipped = append(unskipped, v)
					}
				}
				if !reflect.DeepEqual(seen, unskipped) {
					t.Fatalf("%s layer %d batch %d: replay visited %v, want %v", name, l.Index, rows, seen, unskipped)
				}
				if plan.Skips(l.Index) {
					t.Fatalf("%s layer %d: the plan skips its own fault layer", name, l.Index)
				}
			}
		}
		if plans < len(layers)/2 {
			t.Fatalf("%s: only %d of %d layers have a plan", name, plans, len(layers))
		}
	}
}

// TestCutFrontierResNetS pins the resnet_s plan for a fault at s2b0.b.conv
// (layer 20): the block's first ReLU feeds the faulty conv, and its
// projection branch s2b0.down is not downstream of the fault, so both stay
// cached at 32×4×4 floats each — 1024 per sample. The block input is not on
// the frontier: only clean Applys read it.
func TestCutFrontierResNetS(t *testing.T) {
	m, err := models.Build("resnet_s", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng.New(5), 1, 1, models.InChannels, models.InHeight, models.InWidth)
	plan := nn.PlanCut(m, x, 20)
	if plan == nil {
		t.Fatal("no plan for layer 20")
	}
	if got := plan.RowLen(); got != 1024 {
		t.Fatalf("frontier %d floats per sample, want 1024 (%v)", got, plan.Frontier())
	}
	want := []string{"resnet_s.s2b0.relu1[1 32 4 4]", "resnet_s.s2b0.down[1 32 4 4]"}
	if got := plan.Frontier(); !reflect.DeepEqual(got, want) {
		t.Fatalf("frontier %v, want %v", got, want)
	}
	for i := 0; i < 27; i++ {
		skip := i < 20 || i == 22 || i == 23 // s2b0.down.conv and .bn
		if plan.Skips(i) != skip {
			t.Fatalf("Skips(%d) = %t, want %t", i, plan.Skips(i), skip)
		}
	}
	if nn.PlanCut(m, x, 0) != nil {
		t.Fatal("a fault at the first layer leaves nothing to skip, want no plan")
	}
	if nn.PlanCut(m, x, 99) != nil {
		t.Fatal("a layer the pass never visits must have no plan")
	}
}
