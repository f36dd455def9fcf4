package opt

import (
	"bytes"
	"math"
	"testing"

	"flor.dev/flor/internal/autograd"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// trainStep runs one forward/backward/step on a toy problem and returns the
// loss.
func trainStep(m *nn.Linear, o Optimizer) float64 {
	tape := autograd.NewTape()
	nn.ZeroGrads(m)
	x := autograd.NewConst(tensor.FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2))
	loss := tape.SoftmaxCrossEntropy(m.Forward(tape, x), []int{0, 1, 1})
	tape.Backward(loss)
	o.Step()
	return loss.Value.Item()
}

func TestSGDReducesLoss(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.5, 0, 0)
	first := trainStep(m, o)
	var last float64
	for i := 0; i < 50; i++ {
		last = trainStep(m, o)
	}
	if last >= first {
		t.Fatalf("SGD did not reduce loss: %g -> %g", first, last)
	}
}

func TestSGDMomentumAcceleratesOnQuadratic(t *testing.T) {
	run := func(momentum float64) float64 {
		m := nn.NewLinear("fc", xrand.New(1), 2, 2)
		o := NewSGD(m, 0.1, momentum, 0)
		var last float64
		for i := 0; i < 30; i++ {
			last = trainStep(m, o)
		}
		return last
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum 0.9 did not converge faster than plain SGD on this problem")
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.1, 0, 0.5)
	before := nn.WeightNorm(m)
	// Zero gradients by hand: only decay acts.
	for _, p := range m.Params() {
		p.Var.ZeroGrad()
	}
	tape := autograd.NewTape()
	x := autograd.NewConst(tensor.New(1, 2))
	loss := tape.MeanAll(m.Forward(tape, x))
	tape.Backward(loss)
	nn.ZeroGrads(m)
	o.Step()
	after := nn.WeightNorm(m)
	// With zeroed grads Step skips params (Grad non-nil but zero): decay
	// applies since Grad != nil.
	if after >= before {
		t.Fatalf("weight decay did not shrink weights: %g -> %g", before, after)
	}
}

func TestAdamWReducesLoss(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.05, 0)
	first := trainStep(m, o)
	var last float64
	for i := 0; i < 50; i++ {
		last = trainStep(m, o)
	}
	if last >= first {
		t.Fatalf("AdamW did not reduce loss: %g -> %g", first, last)
	}
}

func TestOptimizerSkipsFrozenParams(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	nn.Freeze(m, "fc.w")
	var frozen *tensor.Tensor
	for _, p := range m.Params() {
		if p.Name == "fc.w" {
			frozen = p.Var.Value.Clone()
		}
	}
	o := NewSGD(m, 0.5, 0.9, 0.1)
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	for _, p := range m.Params() {
		if p.Name == "fc.w" && !tensor.Equal(p.Var.Value, frozen) {
			t.Fatal("optimizer updated a frozen parameter")
		}
	}
}

func TestSGDSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.5, 0.9, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m, o)
	}
	snap := o.Snapshot()
	weights := nn.CloneState(m)

	// Diverge, then restore both optimizer and weights.
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	if err := o.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(m, weights); err != nil {
		t.Fatal(err)
	}

	// A fresh run from the same point must produce identical trajectories.
	m2 := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o2 := NewSGD(m2, 0.5, 0.9, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m2, o2)
	}
	for i := 0; i < 4; i++ {
		l1 := trainStep(m, o)
		l2 := trainStep(m2, o2)
		if l1 != l2 {
			t.Fatalf("restored trajectory diverged at step %d: %g vs %g", i, l1, l2)
		}
	}
}

func TestAdamWSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.05, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m, o)
	}
	snap := o.Snapshot()
	weights := nn.CloneState(m)
	for i := 0; i < 5; i++ {
		trainStep(m, o)
	}
	if err := o.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadState(m, weights); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o2 := NewAdamW(m2, 0.05, 0.01)
	for i := 0; i < 3; i++ {
		trainStep(m2, o2)
	}
	for i := 0; i < 4; i++ {
		if l1, l2 := trainStep(m, o), trainStep(m2, o2); l1 != l2 {
			t.Fatalf("restored AdamW trajectory diverged at step %d: %g vs %g", i, l1, l2)
		}
	}
}

func TestRestoreRejectsMalformedState(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	if err := NewSGD(m, 0.1, 0, 0).Restore(NewState()); err == nil {
		t.Fatal("SGD.Restore accepted state without lr")
	}
	if err := NewAdamW(m, 0.1, 0).Restore(NewState()); err == nil {
		t.Fatal("AdamW.Restore accepted state without lr/step")
	}
	bad := NewState()
	bad.Scalars["lr"] = 0.1
	bad.Tensors["junk"] = tensor.New(1)
	if err := NewSGD(m, 0.1, 0, 0).Restore(bad); err == nil {
		t.Fatal("SGD.Restore accepted unknown tensor key")
	}
}

// asViews re-expresses st's tensors as wire views into one encoded buffer:
// the form in which a decoded checkpoint reaches Restore.
func asViews(t *testing.T, st *State) (*State, []byte) {
	t.Helper()
	names := st.TensorNames()
	w := codec.NewWriter()
	for _, k := range names {
		w.Tensor(st.Tensors[k])
	}
	buf := w.Bytes()
	r := codec.NewReader(buf)
	out := &State{Scalars: st.Scalars, Views: map[string]codec.TensorView{}}
	for _, k := range names {
		v, err := r.TensorView()
		if err != nil {
			t.Fatal(err)
		}
		out.Views[k] = v
	}
	return out, buf
}

// buffers returns an optimizer's live state tensors by snapshot name.
func buffers(o Optimizer) map[string]*tensor.Tensor {
	out := map[string]*tensor.Tensor{}
	switch o := o.(type) {
	case *SGD:
		for k, v := range o.velocity {
			out["vel."+k] = v
		}
	case *AdamW:
		for k, v := range o.m {
			out["m."+k] = v
		}
		for k, v := range o.v {
			out["v."+k] = v
		}
	}
	return out
}

// TestRestoreFromViewsReusesBuffersWithoutAliasing restores optimizers from
// wire views: each view must land in the optimizer's existing buffer for
// that key, and training on afterwards must leave the checkpoint bytes
// untouched.
func TestRestoreFromViewsReusesBuffersWithoutAliasing(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(nn.Module) Optimizer
	}{
		{"SGD", func(m nn.Module) Optimizer { return NewSGD(m, 0.5, 0.9, 0.01) }},
		{"AdamW", func(m nn.Module) Optimizer { return NewAdamW(m, 0.05, 0.01) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := nn.NewLinear("fc", xrand.New(1), 2, 2)
			o := tc.mk(m)
			for i := 0; i < 3; i++ {
				trainStep(m, o)
			}
			snap := o.Snapshot()
			views, buf := asViews(t, snap)
			want := append([]byte(nil), buf...)
			before := buffers(o)
			for i := 0; i < 2; i++ {
				trainStep(m, o)
			}
			if err := o.Restore(views); err != nil {
				t.Fatal(err)
			}
			after := buffers(o)
			if len(after) != len(before) {
				t.Fatalf("restore left %d buffers, had %d", len(after), len(before))
			}
			for k, b := range before {
				if after[k] != b {
					t.Fatalf("restore replaced the live buffer for %q instead of copying into it", k)
				}
			}
			if !o.Snapshot().Equal(snap) {
				t.Fatal("restored state diverges from the snapshot")
			}
			trainStep(m, o)
			if !bytes.Equal(buf, want) {
				t.Fatal("stepping after restore wrote into the checkpoint bytes")
			}
		})
	}
}

// TestRestoreDropsStaleAndReallocatesMismatchedBuffers pins the two cases
// where Restore cannot copy in place: live buffers the snapshot does not
// carry are dropped, and a buffer whose shape differs is replaced by a fresh
// one holding the snapshot's values.
func TestRestoreDropsStaleAndReallocatesMismatchedBuffers(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 0.5, 0.9, 0)
	trainStep(m, o)
	o.velocity["ghost"] = tensor.New(3)
	odd := tensor.New(5)
	o.velocity["fc.w"] = odd
	st := NewState()
	st.Scalars["lr"] = 0.25
	st.Tensors["vel.fc.w"] = tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	views, buf := asViews(t, st)
	want := append([]byte(nil), buf...)
	if err := o.Restore(views); err != nil {
		t.Fatal(err)
	}
	if len(o.velocity) != 1 {
		t.Fatalf("velocity keys after restore = %d, want 1 (stale ones dropped)", len(o.velocity))
	}
	got := o.velocity["fc.w"]
	if got == odd || !tensor.Equal(got, st.Tensors["vel.fc.w"]) {
		t.Fatal("mismatched buffer not replaced by a fresh copy of the snapshot")
	}
	got.Fill(9)
	if !bytes.Equal(buf, want) {
		t.Fatal("the freshly allocated buffer aliases the checkpoint bytes")
	}
	if o.LR() != 0.25 {
		t.Fatalf("lr = %g, want 0.25", o.LR())
	}
}

func TestStepLRDecaysAtBoundaries(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewStepLR(o, 2, 0.1)
	lrs := []float64{}
	for i := 0; i < 5; i++ {
		s.Step()
		lrs = append(lrs, o.LR())
	}
	want := []float64{1, 0.1, 0.1, 0.01, 0.01}
	for i := range want {
		if math.Abs(lrs[i]-want[i]) > 1e-12 {
			t.Fatalf("StepLR epoch %d lr = %g, want %g", i+1, lrs[i], want[i])
		}
	}
}

func TestCosineLRAnneals(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewCosineLR(o, 10)
	prev := o.LR()
	for i := 0; i < 10; i++ {
		s.Step()
		if o.LR() > prev+1e-12 {
			t.Fatalf("cosine LR increased at epoch %d: %g -> %g", i+1, prev, o.LR())
		}
		prev = o.LR()
	}
	if o.LR() > 1e-9 {
		t.Fatalf("cosine LR at tMax should be ~0, got %g", o.LR())
	}
	// Past tMax the LR stays pinned at 0.
	s.Step()
	if o.LR() > 1e-9 {
		t.Fatalf("cosine LR past tMax should stay 0, got %g", o.LR())
	}
}

func TestSchedulerSnapshotRestore(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewSGD(m, 1.0, 0, 0)
	s := NewCosineLR(o, 10)
	for i := 0; i < 4; i++ {
		s.Step()
	}
	snap := s.Snapshot()
	lrAt4 := o.LR()
	for i := 0; i < 4; i++ {
		s.Step()
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	o.SetLR(lrAt4)
	s.Step()
	// Compare against a clean run advanced 5 steps.
	o2 := NewSGD(nn.NewLinear("fc", xrand.New(1), 2, 2), 1.0, 0, 0)
	s2 := NewCosineLR(o2, 10)
	for i := 0; i < 5; i++ {
		s2.Step()
	}
	if math.Abs(o.LR()-o2.LR()) > 1e-12 {
		t.Fatalf("restored scheduler diverged: %g vs %g", o.LR(), o2.LR())
	}
}

func TestStateCloneAndEqual(t *testing.T) {
	s := NewState()
	s.Scalars["x"] = 1.5
	s.Tensors["w"] = tensor.FromSlice([]float64{1, 2}, 2)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Tensors["w"].Set(9, 0)
	if s.Equal(c) {
		t.Fatal("clone shares tensor storage")
	}
	if s.SizeBytes() <= 0 {
		t.Fatal("SizeBytes should be positive")
	}
}

func TestReferenceGraphExposed(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := NewAdamW(m, 0.1, 0)
	s := NewStepLR(o, 1, 0.5)
	if o.Model() != nn.Module(m) {
		t.Fatal("optimizer does not expose its model")
	}
	if s.Optimizer() != Optimizer(o) {
		t.Fatal("scheduler does not expose its optimizer")
	}
}
