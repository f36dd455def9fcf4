// Package value defines the typed values that live in a training program's
// environment, and the snapshot/restore/encode protocol Flor checkpoints are
// built from.
//
// The protocol has two halves, mirroring the paper's record/replay split:
//
//   - Value.Snapshot() performs a fast deep copy of the value's mutable state
//     on the training thread (the analogue of fork()'s copy in §5.1); the
//     resulting Payload is immutable and can be encoded in the background.
//   - Value.Restore(payload) applies a payload onto the live object. Replay
//     re-executes program setup to reconstruct objects (models, optimizers),
//     then restores checkpointed state onto them — physiological recovery:
//     logical reconstruction of structure, physical recovery of state.
package value

import (
	"fmt"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// Kind identifies a value/payload type on the wire.
type Kind uint8

// The supported kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTensor
	KindState // named tensors + named scalars: models, optimizers, schedulers
	KindRNG
	KindOpaque // non-checkpointable runtime handles (dataset objects etc.)
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindTensor:
		return "tensor"
	case KindState:
		return "state"
	case KindRNG:
		return "rng"
	case KindOpaque:
		return "opaque"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(k))
	}
}

// Payload is an immutable snapshot of a value's mutable state.
type Payload interface {
	Kind() Kind
	Encode(w *codec.Writer)
	SizeBytes() int
}

// Value is a live object in a program environment.
type Value interface {
	Kind() Kind
	// Snapshot deep-copies the value's mutable state. It is the only part of
	// materialization that runs on the training thread.
	Snapshot() Payload
	// Restore applies a payload captured from an identically structured
	// value.
	Restore(Payload) error
	// SizeBytes estimates the serialized size, used by adaptive
	// checkpointing to predict materialization cost.
	SizeBytes() int
	// Equal reports whether another value holds identical state; used by
	// memoization-correctness checks and tests.
	Equal(Value) bool
}

// ---------- payloads ----------

// IntPayload carries an int.
type IntPayload int64

// Kind implements Payload.
func (IntPayload) Kind() Kind { return KindInt }

// Encode implements Payload.
func (p IntPayload) Encode(w *codec.Writer) { w.Int(int(p)) }

// SizeBytes implements Payload.
func (IntPayload) SizeBytes() int { return 9 }

// FloatPayload carries a float64.
type FloatPayload float64

// Kind implements Payload.
func (FloatPayload) Kind() Kind { return KindFloat }

// Encode implements Payload.
func (p FloatPayload) Encode(w *codec.Writer) { w.Float64(float64(p)) }

// SizeBytes implements Payload.
func (FloatPayload) SizeBytes() int { return 8 }

// StringPayload carries a string.
type StringPayload string

// Kind implements Payload.
func (StringPayload) Kind() Kind { return KindString }

// Encode implements Payload.
func (p StringPayload) Encode(w *codec.Writer) { w.String(string(p)) }

// SizeBytes implements Payload.
func (p StringPayload) SizeBytes() int { return len(p) + 4 }

// BoolPayload carries a bool.
type BoolPayload bool

// Kind implements Payload.
func (BoolPayload) Kind() Kind { return KindBool }

// Encode implements Payload.
func (p BoolPayload) Encode(w *codec.Writer) { w.Bool(bool(p)) }

// SizeBytes implements Payload.
func (BoolPayload) SizeBytes() int { return 1 }

// TensorPayload carries a dense tensor, in one of two forms. Snapshot builds
// the materialized form (T set). DecodePayload builds the lazy form: a wire
// view of the tensor, unmaterialized. A lazy payload restores by copying
// checkpoint bytes straight into the live tensor's backing array — the
// restore hot path never builds an intermediate tensor copy — and
// materializes on demand for any other consumer via Tensor. The view aliases
// the decoded section buffer, so a lazy payload lives only as long as that
// buffer: for the length of one restore, unless the payload cache admitted
// it, in which case the cache owns the buffer and never recycles it.
type TensorPayload struct {
	T *tensor.Tensor

	view codec.TensorView // lazy form, set only when T is nil
}

// Kind implements Payload.
func (TensorPayload) Kind() Kind { return KindTensor }

// Encode implements Payload. The lazy form re-emits its wire view verbatim,
// byte-identical to encoding the materialized tensor.
func (p TensorPayload) Encode(w *codec.Writer) {
	if p.T != nil {
		w.Tensor(p.T)
		return
	}
	w.TensorView(p.view)
}

// SizeBytes implements Payload.
func (p TensorPayload) SizeBytes() int {
	if p.T != nil {
		return 8*p.T.Len() + 8
	}
	return len(p.view.Raw) + 8
}

// Tensor returns the payload's tensor, materializing a lazy view on demand.
func (p TensorPayload) Tensor() *tensor.Tensor {
	if p.T != nil {
		return p.T
	}
	return p.view.Tensor()
}

// Shape returns the payload's dimensions without materializing it.
func (p TensorPayload) Shape() []int {
	if p.T != nil {
		return p.T.Shape()
	}
	return p.view.Shape
}

// StatePayload carries named tensors plus named scalars, sorted by name on
// the wire for deterministic encoding. It serves models, optimizers and
// schedulers alike. Snapshot fills S.Tensors; DecodePayload decodes the
// scalars and leaves every tensor as a wire view in S.Views, with the same
// lifetime as a lazy TensorPayload. Restores copy each view once, straight
// into the live parameter or optimizer buffer; S.Tensor materializes one for
// any other consumer.
type StatePayload struct{ S *opt.State }

// Kind implements Payload.
func (StatePayload) Kind() Kind { return KindState }

// Encode implements Payload. Decoded views re-emit byte-identically, so a
// decode/encode round trip reproduces the checkpoint bytes.
func (p StatePayload) Encode(w *codec.Writer) {
	scalarKeys := sortedKeys(p.S.Scalars)
	w.Uvarint(uint64(len(scalarKeys)))
	for _, k := range scalarKeys {
		w.String(k)
		w.Float64(p.S.Scalars[k])
	}
	tensorKeys := p.S.TensorNames()
	w.Uvarint(uint64(len(tensorKeys)))
	for _, k := range tensorKeys {
		w.String(k)
		if v, ok := p.S.Views[k]; ok {
			w.TensorView(v)
		} else {
			w.Tensor(p.S.Tensors[k])
		}
	}
}

// SizeBytes implements Payload.
func (p StatePayload) SizeBytes() int { return p.S.SizeBytes() + 8 }

// RNGPayload carries a PCG generator state.
type RNGPayload [16]byte

// Kind implements Payload.
func (RNGPayload) Kind() Kind { return KindRNG }

// Encode implements Payload.
func (p RNGPayload) Encode(w *codec.Writer) { w.RawBytes(p[:]) }

// SizeBytes implements Payload.
func (RNGPayload) SizeBytes() int { return 17 }

// DecodePayload reads one payload of the given kind from r.
func DecodePayload(r *codec.Reader, k Kind) (Payload, error) {
	switch k {
	case KindInt:
		v, err := r.Int()
		if err != nil {
			return nil, err
		}
		return IntPayload(v), nil
	case KindFloat:
		v, err := r.Float64()
		if err != nil {
			return nil, err
		}
		return FloatPayload(v), nil
	case KindString:
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		return StringPayload(v), nil
	case KindBool:
		v, err := r.Bool()
		if err != nil {
			return nil, err
		}
		return BoolPayload(v), nil
	case KindTensor:
		// Decode lazily: keep the wire view so a subsequent Restore copies
		// bytes straight onto the live tensor instead of paying for an
		// intermediate materialized copy it would immediately discard.
		v, err := r.TensorView()
		if err != nil {
			return nil, err
		}
		return TensorPayload{view: v}, nil
	case KindState:
		// Scalars decode; tensors stay wire views, as for KindTensor.
		ns, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		st := &opt.State{Scalars: map[string]float64{}, Views: map[string]codec.TensorView{}}
		for i := uint64(0); i < ns; i++ {
			name, err := r.String()
			if err != nil {
				return nil, err
			}
			v, err := r.Float64()
			if err != nil {
				return nil, err
			}
			st.Scalars[name] = v
		}
		nt, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nt; i++ {
			name, err := r.String()
			if err != nil {
				return nil, err
			}
			v, err := r.TensorView()
			if err != nil {
				return nil, err
			}
			st.Views[name] = v
		}
		return StatePayload{S: st}, nil
	case KindRNG:
		b, err := r.RawBytes()
		if err != nil {
			return nil, err
		}
		if len(b) != 16 {
			return nil, fmt.Errorf("value: RNG payload length %d, want 16", len(b))
		}
		var p RNGPayload
		copy(p[:], b)
		return p, nil
	case KindOpaque:
		return OpaquePayload{}, nil
	default:
		return nil, fmt.Errorf("value: unknown payload kind %d", uint8(k))
	}
}

// EncodePayload writes k's tag followed by the payload body.
func EncodePayload(w *codec.Writer, p Payload) {
	w.Uvarint(uint64(p.Kind()))
	p.Encode(w)
}

// DecodeTaggedPayload reads a kind tag then the payload body.
func DecodeTaggedPayload(r *codec.Reader) (Payload, error) {
	k, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return DecodePayload(r, Kind(k))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortStrings(s []string) {
	// Insertion sort: key sets are small and this avoids importing sort in a
	// hot path package.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ---------- live values ----------

// Int is a mutable integer box.
type Int struct{ V int }

// Kind implements Value.
func (*Int) Kind() Kind { return KindInt }

// Snapshot implements Value.
func (b *Int) Snapshot() Payload { return IntPayload(b.V) }

// Restore implements Value.
func (b *Int) Restore(p Payload) error {
	ip, ok := p.(IntPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = int(ip)
	return nil
}

// SizeBytes implements Value.
func (*Int) SizeBytes() int { return 9 }

// Equal implements Value.
func (b *Int) Equal(o Value) bool {
	ob, ok := o.(*Int)
	return ok && ob.V == b.V
}

// Float is a mutable float box.
type Float struct{ V float64 }

// Kind implements Value.
func (*Float) Kind() Kind { return KindFloat }

// Snapshot implements Value.
func (b *Float) Snapshot() Payload { return FloatPayload(b.V) }

// Restore implements Value.
func (b *Float) Restore(p Payload) error {
	fp, ok := p.(FloatPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = float64(fp)
	return nil
}

// SizeBytes implements Value.
func (*Float) SizeBytes() int { return 8 }

// Equal implements Value.
func (b *Float) Equal(o Value) bool {
	ob, ok := o.(*Float)
	return ok && ob.V == b.V
}

// String is a mutable string box.
type String struct{ V string }

// Kind implements Value.
func (*String) Kind() Kind { return KindString }

// Snapshot implements Value.
func (b *String) Snapshot() Payload { return StringPayload(b.V) }

// Restore implements Value.
func (b *String) Restore(p Payload) error {
	sp, ok := p.(StringPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = string(sp)
	return nil
}

// SizeBytes implements Value.
func (b *String) SizeBytes() int { return len(b.V) + 4 }

// Equal implements Value.
func (b *String) Equal(o Value) bool {
	ob, ok := o.(*String)
	return ok && ob.V == b.V
}

// Bool is a mutable bool box.
type Bool struct{ V bool }

// Kind implements Value.
func (*Bool) Kind() Kind { return KindBool }

// Snapshot implements Value.
func (b *Bool) Snapshot() Payload { return BoolPayload(b.V) }

// Restore implements Value.
func (b *Bool) Restore(p Payload) error {
	bp, ok := p.(BoolPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.V = bool(bp)
	return nil
}

// SizeBytes implements Value.
func (*Bool) SizeBytes() int { return 1 }

// Equal implements Value.
func (b *Bool) Equal(o Value) bool {
	ob, ok := o.(*Bool)
	return ok && ob.V == b.V
}

// Tensor wraps a live tensor; restore copies data in place so views held
// elsewhere stay valid.
type Tensor struct{ T *tensor.Tensor }

// Kind implements Value.
func (*Tensor) Kind() Kind { return KindTensor }

// Snapshot implements Value.
func (b *Tensor) Snapshot() Payload { return TensorPayload{T: b.T.Clone()} }

// Restore implements Value.
func (b *Tensor) Restore(p Payload) error {
	tp, ok := p.(TensorPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	if tp.T == nil {
		// Lazy payload: copy the wire bytes straight into the live tensor's
		// aligned backing array, skipping the intermediate tensor entirely.
		if err := tp.view.CopyTo(b.T); err != nil {
			return fmt.Errorf("value: tensor restore: %w", err)
		}
		return nil
	}
	if !tensor.SameShape(b.T, tp.T) {
		return fmt.Errorf("value: tensor restore shape mismatch %v vs %v", b.T.Shape(), tp.T.Shape())
	}
	b.T.CopyFrom(tp.T)
	return nil
}

// SizeBytes implements Value.
func (b *Tensor) SizeBytes() int { return 8*b.T.Len() + 8 }

// Equal implements Value.
func (b *Tensor) Equal(o Value) bool {
	ob, ok := o.(*Tensor)
	return ok && tensor.Equal(b.T, ob.T)
}

// Model wraps a live nn.Module. Snapshotting captures every parameter;
// restoring copies parameter data into the live module, which replay has
// already reconstructed by re-executing program setup.
type Model struct{ M nn.Module }

// Kind implements Value.
func (*Model) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Model) Snapshot() Payload {
	st := opt.NewState()
	for _, p := range b.M.Params() {
		st.Tensors[p.Name] = p.Var.Value.Clone()
	}
	return StatePayload{S: st}
}

// Restore implements Value. Every parameter must be present with a matching
// shape; each is copied once, from the payload straight into the live
// parameter.
func (b *Model) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	for _, prm := range b.M.Params() {
		if err := sp.S.CopyTo(prm.Name, prm.Var.Value); err != nil {
			return fmt.Errorf("value: model restore %q: %w", prm.Name, err)
		}
	}
	return nil
}

// SizeBytes implements Value.
func (b *Model) SizeBytes() int {
	n := 0
	for _, p := range b.M.Params() {
		n += 8*p.Var.Value.Len() + len(p.Name) + 8
	}
	return n
}

// Equal implements Value.
func (b *Model) Equal(o Value) bool {
	ob, ok := o.(*Model)
	return ok && nn.StatesEqual(b.M, ob.M)
}

// Optimizer wraps a live optimizer; the wrapped object also drives Flor's
// changeset augmentation (it exposes the model it mutates).
type Optimizer struct{ O opt.Optimizer }

// Kind implements Value.
func (*Optimizer) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Optimizer) Snapshot() Payload { return StatePayload{S: b.O.Snapshot()} }

// Restore implements Value.
func (b *Optimizer) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	return b.O.Restore(sp.S)
}

// SizeBytes implements Value.
func (b *Optimizer) SizeBytes() int { return b.O.Snapshot().SizeBytes() }

// Equal implements Value.
func (b *Optimizer) Equal(o Value) bool {
	ob, ok := o.(*Optimizer)
	return ok && b.O.Snapshot().Equal(ob.O.Snapshot())
}

// Scheduler wraps a live LR scheduler.
type Scheduler struct{ S opt.Scheduler }

// Kind implements Value.
func (*Scheduler) Kind() Kind { return KindState }

// Snapshot implements Value.
func (b *Scheduler) Snapshot() Payload { return StatePayload{S: b.S.Snapshot()} }

// Restore implements Value.
func (b *Scheduler) Restore(p Payload) error {
	sp, ok := p.(StatePayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	return b.S.Restore(sp.S)
}

// SizeBytes implements Value.
func (b *Scheduler) SizeBytes() int { return b.S.Snapshot().SizeBytes() }

// Equal implements Value.
func (b *Scheduler) Equal(o Value) bool {
	ob, ok := o.(*Scheduler)
	return ok && b.S.Snapshot().Equal(ob.S.Snapshot())
}

// RNG wraps a live random generator whose consumption inside a loop is a
// side-effect that checkpoints must capture.
type RNG struct{ R *xrand.RNG }

// Kind implements Value.
func (*RNG) Kind() Kind { return KindRNG }

// Snapshot implements Value.
func (b *RNG) Snapshot() Payload { return RNGPayload(b.R.State()) }

// Restore implements Value.
func (b *RNG) Restore(p Payload) error {
	rp, ok := p.(RNGPayload)
	if !ok {
		return restoreMismatch(b, p)
	}
	b.R.SetState([16]byte(rp))
	return nil
}

// SizeBytes implements Value.
func (*RNG) SizeBytes() int { return 17 }

// Equal implements Value.
func (b *RNG) Equal(o Value) bool {
	ob, ok := o.(*RNG)
	return ok && b.R.Equal(ob.R)
}

// OpaquePayload is the (empty) snapshot of an Opaque value.
type OpaquePayload struct{}

// Kind implements Payload.
func (OpaquePayload) Kind() Kind { return KindOpaque }

// Encode implements Payload.
func (OpaquePayload) Encode(*codec.Writer) {}

// SizeBytes implements Payload.
func (OpaquePayload) SizeBytes() int { return 0 }

// Opaque wraps a runtime object that does not need checkpointing: dataset
// handles, trainer closures, and other objects that programs reconstruct
// deterministically in setup. An Opaque value must never appear in a loop
// changeset with meaningful state; its snapshot captures nothing.
type Opaque struct{ V any }

// Kind implements Value.
func (*Opaque) Kind() Kind { return KindOpaque }

// Snapshot implements Value.
func (*Opaque) Snapshot() Payload { return OpaquePayload{} }

// Restore implements Value.
func (b *Opaque) Restore(p Payload) error {
	if _, ok := p.(OpaquePayload); !ok {
		return restoreMismatch(b, p)
	}
	return nil
}

// SizeBytes implements Value.
func (*Opaque) SizeBytes() int { return 0 }

// Equal implements Value.
func (b *Opaque) Equal(o Value) bool {
	ob, ok := o.(*Opaque)
	return ok && ob.V == b.V
}

func restoreMismatch(v Value, p Payload) error {
	return fmt.Errorf("value: cannot restore %s payload into %s value", p.Kind(), v.Kind())
}
