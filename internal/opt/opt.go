// Package opt implements optimizers and learning-rate schedulers for the
// training substrate.
//
// Two properties matter to Flor (paper §5.2.1): the optimizer is the object
// through which the model is mutated, and the scheduler is the object through
// which the optimizer is mutated. Both expose that reference graph
// explicitly (Model(), Optimizer()) so the changeset augmentation step can
// discover side-effects the static rules miss. Optimizer state (momentum
// buffers, Adam moments, step counters) is fully serializable because a
// checkpoint that omitted it would replay divergently.
package opt

import (
	"fmt"
	"math"
	"sort"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/tensor"
)

// State is a serializable snapshot of optimizer or scheduler state: named
// tensors plus named scalars.
//
// A tensor is held in one of two forms, never both under one name. Tensors
// holds materialized tensors — what Snapshot captures on the training
// thread. Views holds wire views decoded from a checkpoint: they alias the
// checkpoint's section buffer, which the restore path recycles once the
// restore is applied, so consumers copy out of a view (CopyTo, or Restore
// through load) and never retain it. Tensor materializes either form.
type State struct {
	Scalars map[string]float64
	Tensors map[string]*tensor.Tensor
	Views   map[string]codec.TensorView
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Scalars: map[string]float64{}, Tensors: map[string]*tensor.Tensor{}}
}

// TensorNames returns the names of the state's tensors, in either form,
// sorted.
func (s *State) TensorNames() []string {
	names := make([]string, 0, len(s.Tensors)+len(s.Views))
	for k := range s.Tensors {
		names = append(names, k)
	}
	for k := range s.Views {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Tensor returns the named tensor, materializing a wire view into a fresh
// tensor.
func (s *State) Tensor(name string) (*tensor.Tensor, bool) {
	if v, ok := s.Views[name]; ok {
		return v.Tensor(), true
	}
	t, ok := s.Tensors[name]
	return t, ok
}

// CopyTo copies the named tensor into dst, whose shape must match — the one
// copy a restore makes of each tensor.
func (s *State) CopyTo(name string, dst *tensor.Tensor) error {
	if v, ok := s.Views[name]; ok {
		return v.CopyTo(dst)
	}
	t, ok := s.Tensors[name]
	if !ok {
		return fmt.Errorf("opt: state has no tensor %q", name)
	}
	if !tensor.SameShape(t, dst) {
		return fmt.Errorf("opt: tensor %q shape mismatch: state %v, live %v", name, t.Shape(), dst.Shape())
	}
	dst.CopyFrom(t)
	return nil
}

// load copies the named tensor into buf when buf exists with the same shape
// and into a fresh tensor otherwise, returning the destination. The result
// never aliases the state.
func (s *State) load(name string, buf *tensor.Tensor) *tensor.Tensor {
	if buf != nil && s.CopyTo(name, buf) == nil {
		return buf
	}
	if v, ok := s.Views[name]; ok {
		return v.Tensor()
	}
	return s.Tensors[name].Clone()
}

// Clone deep-copies the state, materializing wire views.
func (s *State) Clone() *State {
	c := NewState()
	for k, v := range s.Scalars {
		c.Scalars[k] = v
	}
	for k, v := range s.Tensors {
		c.Tensors[k] = v.Clone()
	}
	for k, v := range s.Views {
		c.Tensors[k] = v.Tensor()
	}
	return c
}

// Equal reports deep equality of two states, whichever form their tensors
// are held in.
func (s *State) Equal(o *State) bool {
	if len(s.Scalars) != len(o.Scalars) || len(s.Tensors)+len(s.Views) != len(o.Tensors)+len(o.Views) {
		return false
	}
	for k, v := range s.Scalars {
		if ov, ok := o.Scalars[k]; !ok || ov != v {
			return false
		}
	}
	for _, k := range s.TensorNames() {
		a, _ := s.Tensor(k)
		b, ok := o.Tensor(k)
		if !ok || !tensor.Equal(a, b) {
			return false
		}
	}
	return true
}

// SizeBytes estimates the serialized size of the state.
func (s *State) SizeBytes() int {
	n := 0
	for k := range s.Scalars {
		n += len(k) + 8
	}
	for k, v := range s.Tensors {
		n += len(k) + 8*v.Len()
	}
	for k, v := range s.Views {
		n += len(k) + len(v.Raw)
	}
	return n
}

// Optimizer updates a model's trainable parameters from their gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently accumulated on
	// the model's parameters.
	Step()
	// Model returns the module this optimizer mutates (used by Flor's
	// changeset augmentation).
	Model() nn.Module
	// LR returns the current learning rate.
	LR() float64
	// SetLR overrides the learning rate (called by schedulers).
	SetLR(lr float64)
	// Snapshot captures all mutable optimizer state.
	Snapshot() *State
	// Restore applies a snapshot captured from an identically configured
	// optimizer.
	Restore(*State) error
}

// SGD is stochastic gradient descent with momentum and decoupled weight
// decay.
type SGD struct {
	model       nn.Module
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    map[string]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer over model's trainable parameters.
func NewSGD(model nn.Module, lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		model:       model,
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    map[string]*tensor.Tensor{},
	}
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for _, p := range s.model.Params() {
		if !p.Var.RequiresGrad() || p.Var.Grad == nil {
			continue
		}
		g := p.Var.Grad
		if s.weightDecay != 0 {
			// Decoupled weight decay: w -= lr * wd * w.
			tensor.AxpyInPlace(p.Var.Value, -s.lr*s.weightDecay, p.Var.Value)
		}
		if s.momentum != 0 {
			v, ok := s.velocity[p.Name]
			if !ok {
				v = tensor.New(p.Var.Value.Shape()...)
				s.velocity[p.Name] = v
			}
			tensor.ScaleInPlace(v, s.momentum)
			tensor.AddInPlace(v, g)
			g = v
		}
		tensor.AxpyInPlace(p.Var.Value, -s.lr, g)
	}
}

// Model implements Optimizer.
func (s *SGD) Model() nn.Module { return s.model }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Snapshot implements Optimizer.
func (s *SGD) Snapshot() *State {
	st := NewState()
	st.Scalars["lr"] = s.lr
	for k, v := range s.velocity {
		st.Tensors["vel."+k] = v.Clone()
	}
	return st
}

// Restore implements Optimizer. Each velocity buffer is copied into the
// optimizer's existing buffer for that parameter when the shapes match, and
// allocated only when there is none or its shape differs; buffers for
// parameters the snapshot does not carry are dropped.
func (s *SGD) Restore(st *State) error {
	lr, ok := st.Scalars["lr"]
	if !ok {
		return fmt.Errorf("opt: SGD restore: missing lr")
	}
	names := st.TensorNames()
	for _, k := range names {
		if len(k) < 5 || k[:4] != "vel." {
			return fmt.Errorf("opt: SGD restore: unexpected tensor %q", k)
		}
	}
	velocity := make(map[string]*tensor.Tensor, len(names))
	for _, k := range names {
		velocity[k[4:]] = st.load(k, s.velocity[k[4:]])
	}
	s.lr = lr
	s.velocity = velocity
	return nil
}

// AdamW is the Adam optimizer with decoupled weight decay.
type AdamW struct {
	model       nn.Module
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64
	step        int
	m           map[string]*tensor.Tensor
	v           map[string]*tensor.Tensor
}

// NewAdamW constructs an AdamW optimizer with standard betas (0.9, 0.999).
func NewAdamW(model nn.Module, lr, weightDecay float64) *AdamW {
	return &AdamW{
		model:       model,
		lr:          lr,
		beta1:       0.9,
		beta2:       0.999,
		eps:         1e-8,
		weightDecay: weightDecay,
		m:           map[string]*tensor.Tensor{},
		v:           map[string]*tensor.Tensor{},
	}
}

// Step implements Optimizer.
func (a *AdamW) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.beta2, float64(a.step))
	for _, p := range a.model.Params() {
		if !p.Var.RequiresGrad() || p.Var.Grad == nil {
			continue
		}
		g := p.Var.Grad
		m, ok := a.m[p.Name]
		if !ok {
			m = tensor.New(p.Var.Value.Shape()...)
			a.m[p.Name] = m
			a.v[p.Name] = tensor.New(p.Var.Value.Shape()...)
		}
		v := a.v[p.Name]
		md, vd, gd, wd := m.Data(), v.Data(), g.Data(), p.Var.Value.Data()
		for i := range gd {
			md[i] = a.beta1*md[i] + (1-a.beta1)*gd[i]
			vd[i] = a.beta2*vd[i] + (1-a.beta2)*gd[i]*gd[i]
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			wd[i] -= a.lr * (mHat/(math.Sqrt(vHat)+a.eps) + a.weightDecay*wd[i])
		}
	}
}

// Model implements Optimizer.
func (a *AdamW) Model() nn.Module { return a.model }

// LR implements Optimizer.
func (a *AdamW) LR() float64 { return a.lr }

// SetLR implements Optimizer.
func (a *AdamW) SetLR(lr float64) { a.lr = lr }

// Snapshot implements Optimizer.
func (a *AdamW) Snapshot() *State {
	st := NewState()
	st.Scalars["lr"] = a.lr
	st.Scalars["step"] = float64(a.step)
	for k, v := range a.m {
		st.Tensors["m."+k] = v.Clone()
	}
	for k, v := range a.v {
		st.Tensors["v."+k] = v.Clone()
	}
	return st
}

// Restore implements Optimizer, reusing the existing moment buffers the
// way SGD.Restore reuses its velocity buffers.
func (a *AdamW) Restore(st *State) error {
	lr, ok := st.Scalars["lr"]
	if !ok {
		return fmt.Errorf("opt: AdamW restore: missing lr")
	}
	stepF, ok := st.Scalars["step"]
	if !ok {
		return fmt.Errorf("opt: AdamW restore: missing step")
	}
	names := st.TensorNames()
	for _, k := range names {
		if len(k) <= 2 || (k[:2] != "m." && k[:2] != "v.") {
			return fmt.Errorf("opt: AdamW restore: unexpected tensor %q", k)
		}
	}
	m, v := map[string]*tensor.Tensor{}, map[string]*tensor.Tensor{}
	for _, k := range names {
		if k[0] == 'm' {
			m[k[2:]] = st.load(k, a.m[k[2:]])
		} else {
			v[k[2:]] = st.load(k, a.v[k[2:]])
		}
	}
	a.lr = lr
	a.step = int(stepF)
	a.m, a.v = m, v
	return nil
}

// Scheduler adjusts an optimizer's learning rate once per epoch.
type Scheduler interface {
	// Step advances the schedule by one epoch.
	Step()
	// Optimizer returns the optimizer this scheduler mutates (used by Flor's
	// changeset augmentation).
	Optimizer() Optimizer
	// Snapshot captures scheduler state.
	Snapshot() *State
	// Restore applies a snapshot.
	Restore(*State) error
}

// StepLR multiplies the learning rate by gamma every stepSize epochs.
type StepLR struct {
	opt      Optimizer
	gamma    float64
	stepSize int
	epoch    int
}

// NewStepLR constructs a step decay schedule.
func NewStepLR(o Optimizer, stepSize int, gamma float64) *StepLR {
	return &StepLR{opt: o, gamma: gamma, stepSize: stepSize}
}

// Step implements Scheduler.
func (s *StepLR) Step() {
	s.epoch++
	if s.stepSize > 0 && s.epoch%s.stepSize == 0 {
		s.opt.SetLR(s.opt.LR() * s.gamma)
	}
}

// Optimizer implements Scheduler.
func (s *StepLR) Optimizer() Optimizer { return s.opt }

// Snapshot implements Scheduler.
func (s *StepLR) Snapshot() *State {
	st := NewState()
	st.Scalars["epoch"] = float64(s.epoch)
	return st
}

// Restore implements Scheduler.
func (s *StepLR) Restore(st *State) error {
	e, ok := st.Scalars["epoch"]
	if !ok {
		return fmt.Errorf("opt: StepLR restore: missing epoch")
	}
	s.epoch = int(e)
	return nil
}

// CosineLR anneals the learning rate from its base value to zero over tMax
// epochs following a half cosine.
type CosineLR struct {
	opt    Optimizer
	baseLR float64
	tMax   int
	epoch  int
}

// NewCosineLR constructs a cosine annealing schedule over tMax epochs.
func NewCosineLR(o Optimizer, tMax int) *CosineLR {
	return &CosineLR{opt: o, baseLR: o.LR(), tMax: tMax}
}

// Step implements Scheduler.
func (s *CosineLR) Step() {
	s.epoch++
	frac := float64(s.epoch) / float64(s.tMax)
	if frac > 1 {
		frac = 1
	}
	s.opt.SetLR(s.baseLR * 0.5 * (1 + math.Cos(math.Pi*frac)))
}

// Optimizer implements Scheduler.
func (s *CosineLR) Optimizer() Optimizer { return s.opt }

// Snapshot implements Scheduler.
func (s *CosineLR) Snapshot() *State {
	st := NewState()
	st.Scalars["epoch"] = float64(s.epoch)
	st.Scalars["baseLR"] = s.baseLR
	return st
}

// Restore implements Scheduler.
func (s *CosineLR) Restore(st *State) error {
	e, ok := st.Scalars["epoch"]
	if !ok {
		return fmt.Errorf("opt: CosineLR restore: missing epoch")
	}
	base, ok := st.Scalars["baseLR"]
	if !ok {
		return fmt.Errorf("opt: CosineLR restore: missing baseLR")
	}
	s.epoch = int(e)
	s.baseLR = base
	return nil
}
