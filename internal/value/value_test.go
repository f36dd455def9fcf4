package value

import (
	"runtime"
	"testing"
	"testing/quick"

	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/xrand"
)

// encodeDecode round-trips a payload through the tagged wire format.
func encodeDecode(t *testing.T, p Payload) Payload {
	t.Helper()
	w := codec.NewWriter()
	EncodePayload(w, p)
	got, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("decode %s payload: %v", p.Kind(), err)
	}
	return got
}

func TestPrimitiveSnapshotRestore(t *testing.T) {
	i := &Int{V: 7}
	snap := i.Snapshot()
	i.V = 99
	if err := i.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if i.V != 7 {
		t.Fatalf("Int restore = %d, want 7", i.V)
	}

	f := &Float{V: 2.5}
	fsnap := f.Snapshot()
	f.V = 0
	if err := f.Restore(encodeDecode(t, fsnap)); err != nil {
		t.Fatal(err)
	}
	if f.V != 2.5 {
		t.Fatalf("Float restore = %g", f.V)
	}

	s := &String{V: "epoch-3"}
	ssnap := s.Snapshot()
	s.V = "x"
	if err := s.Restore(encodeDecode(t, ssnap)); err != nil {
		t.Fatal(err)
	}
	if s.V != "epoch-3" {
		t.Fatalf("String restore = %q", s.V)
	}

	b := &Bool{V: true}
	bsnap := b.Snapshot()
	b.V = false
	if err := b.Restore(encodeDecode(t, bsnap)); err != nil {
		t.Fatal(err)
	}
	if !b.V {
		t.Fatal("Bool restore failed")
	}
}

func TestTensorSnapshotIsolatedFromLiveMutation(t *testing.T) {
	tb := &Tensor{T: tensor.FromSlice([]float64{1, 2, 3}, 3)}
	snap := tb.Snapshot()
	tb.T.Set(99, 0) // mutate live after snapshot
	if snap.(TensorPayload).T.At(0) != 1 {
		t.Fatal("snapshot aliased live tensor")
	}
	if err := tb.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if tb.T.At(0) != 1 {
		t.Fatal("tensor restore failed")
	}
}

func TestTensorRestorePreservesIdentity(t *testing.T) {
	// Restoring must copy into the existing tensor, not replace it: other
	// objects may hold references to the same storage.
	orig := tensor.FromSlice([]float64{1, 2}, 2)
	tb := &Tensor{T: orig}
	snap := tb.Snapshot()
	orig.Fill(0)
	if err := tb.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tb.T != orig {
		t.Fatal("restore replaced the tensor object")
	}
	if orig.At(1) != 2 {
		t.Fatal("restore did not write through to original storage")
	}
}

func TestTensorRestoreShapeMismatch(t *testing.T) {
	tb := &Tensor{T: tensor.New(2, 2)}
	if err := tb.Restore(TensorPayload{T: tensor.New(3)}); err == nil {
		t.Fatal("shape-mismatched restore succeeded")
	}
}

func TestModelSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewResidualMLP(xrand.New(1), 4, 8, 8, 2, 3)
	mv := &Model{M: m}
	snap := mv.Snapshot()
	for _, p := range m.Params() {
		p.Var.Value.Fill(42)
	}
	if err := mv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	ref := nn.NewResidualMLP(xrand.New(1), 4, 8, 8, 2, 3)
	if !nn.StatesEqual(m, ref) {
		t.Fatal("model restore did not reproduce original weights")
	}
}

func TestOptimizerSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := opt.NewAdamW(m, 0.01, 0.1)
	// Give the optimizer some state.
	for _, p := range m.Params() {
		p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
	}
	o.Step()
	ov := &Optimizer{O: o}
	snap := ov.Snapshot()
	o.Step()
	o.Step()
	if err := ov.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if !o.Snapshot().Equal(snap.(StatePayload).S) {
		t.Fatal("optimizer restore did not reproduce snapshot state")
	}
}

func TestSchedulerSnapshotRestoreRoundTrip(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 2, 2)
	o := opt.NewSGD(m, 1, 0, 0)
	s := opt.NewCosineLR(o, 10)
	s.Step()
	s.Step()
	sv := &Scheduler{S: s}
	snap := sv.Snapshot()
	s.Step()
	if err := sv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if !s.Snapshot().Equal(snap.(StatePayload).S) {
		t.Fatal("scheduler restore did not reproduce snapshot state")
	}
}

func TestRNGSnapshotRestoreResumesStream(t *testing.T) {
	r := xrand.New(7)
	rv := &RNG{R: r}
	r.Uint64()
	snap := rv.Snapshot()
	want := r.Uint64()
	r.Uint64() // advance further
	if err := rv.Restore(encodeDecode(t, snap)); err != nil {
		t.Fatal(err)
	}
	if got := r.Uint64(); got != want {
		t.Fatalf("restored RNG drew %d, want %d", got, want)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	i := &Int{}
	if err := i.Restore(FloatPayload(1)); err == nil {
		t.Fatal("Int accepted Float payload")
	}
	tb := &Tensor{T: tensor.New(1)}
	if err := tb.Restore(IntPayload(1)); err == nil {
		t.Fatal("Tensor accepted Int payload")
	}
	m := &Model{M: nn.NewLinear("fc", xrand.New(1), 1, 1)}
	if err := m.Restore(RNGPayload{}); err == nil {
		t.Fatal("Model accepted RNG payload")
	}
}

func TestEqualSemantics(t *testing.T) {
	if (&Int{V: 1}).Equal(&Int{V: 2}) {
		t.Fatal("unequal ints compared equal")
	}
	if !(&Int{V: 1}).Equal(&Int{V: 1}) {
		t.Fatal("equal ints compared unequal")
	}
	if (&Int{V: 1}).Equal(&Float{V: 1}) {
		t.Fatal("cross-kind equality")
	}
	a := &Tensor{T: tensor.Full(1, 2)}
	b := &Tensor{T: tensor.Full(1, 2)}
	if !a.Equal(b) {
		t.Fatal("identical tensors unequal")
	}
	b.T.Set(2, 0)
	if a.Equal(b) {
		t.Fatal("different tensors equal")
	}
}

func TestStatePayloadDeterministicEncoding(t *testing.T) {
	st := opt.NewState()
	st.Scalars["zeta"] = 1
	st.Scalars["alpha"] = 2
	st.Tensors["m.b"] = tensor.Full(1, 2)
	st.Tensors["m.a"] = tensor.Randn(xrand.New(4), 1, 3, 2)
	enc := func(p Payload) []byte {
		w := codec.NewWriter()
		EncodePayload(w, p)
		return w.Bytes()
	}
	a, b := enc(StatePayload{S: st}), enc(StatePayload{S: st})
	if string(a) != string(b) {
		t.Fatal("StatePayload encoding not deterministic (map iteration leaked)")
	}
	// Decoding keeps every tensor as a wire view into the encoded bytes,
	// and re-encoding the views reproduces those bytes exactly.
	dec, err := DecodeTaggedPayload(codec.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	ds := dec.(StatePayload).S
	if len(ds.Tensors) != 0 || len(ds.Views) != 2 {
		t.Fatalf("decoded state holds %d tensors and %d views, want 0 and 2", len(ds.Tensors), len(ds.Views))
	}
	if got := enc(dec); string(got) != string(a) {
		t.Fatal("decode/encode round trip of a StatePayload is not byte-identical")
	}
	if got, want := dec.SizeBytes(), (StatePayload{S: st}).SizeBytes(); got != want {
		t.Fatalf("decoded SizeBytes = %d, snapshot SizeBytes = %d", got, want)
	}
	if !ds.Equal(st) {
		t.Fatal("decoded state does not equal the snapshot it encodes")
	}
	// The materializing accessor hands out a copy, not a view.
	m, ok := ds.Tensor("m.a")
	if !ok || !tensor.Equal(m, st.Tensors["m.a"]) {
		t.Fatal("materialized view diverges from the snapshot tensor")
	}
	m.Fill(7)
	if got := enc(dec); string(got) != string(a) {
		t.Fatal("mutating a materialized tensor changed the payload")
	}
}

// restorePair builds a live model plus momentum SGD, and a decoded
// model/optimizer checkpoint of a different state to restore into them.
func restorePair(t *testing.T, width int) (mv *Model, ov *Optimizer, modelP, optP Payload, encoded []byte) {
	t.Helper()
	src := nn.NewLinear("fc", xrand.New(1), width, width)
	st := opt.NewState()
	st.Scalars["lr"] = 0.05
	for i, p := range src.Params() {
		st.Tensors["vel."+p.Name] = tensor.Randn(xrand.New(uint64(10+i)), 1, p.Var.Value.Shape()...)
	}
	w := codec.NewWriter()
	EncodePayload(w, (&Model{M: src}).Snapshot())
	EncodePayload(w, StatePayload{S: st})
	encoded = w.Bytes()
	r := codec.NewReader(encoded)
	var err error
	if modelP, err = DecodeTaggedPayload(r); err != nil {
		t.Fatal(err)
	}
	if optP, err = DecodeTaggedPayload(r); err != nil {
		t.Fatal(err)
	}
	live := nn.NewLinear("fc", xrand.New(2), width, width)
	return &Model{M: live}, &Optimizer{O: opt.NewSGD(live, 0.1, 0.9, 0)}, modelP, optP, encoded
}

// TestRestoredStateNeverAliasesPayload steps a model and optimizer restored
// from decoded views and checks the payload bytes are untouched: restore
// copied every view instead of adopting the checkpoint's buffer.
func TestRestoredStateNeverAliasesPayload(t *testing.T) {
	mv, ov, modelP, optP, encoded := restorePair(t, 6)
	want := append([]byte(nil), encoded...)
	if err := mv.Restore(modelP); err != nil {
		t.Fatal(err)
	}
	if err := ov.Restore(optP); err != nil {
		t.Fatal(err)
	}
	if !ov.O.Snapshot().Equal(optP.(StatePayload).S) {
		t.Fatal("optimizer restore diverges from the payload")
	}
	for _, p := range mv.M.Params() {
		p.Var.Grad = tensor.Full(0.5, p.Var.Value.Shape()...)
	}
	ov.O.Step()
	if string(encoded) != string(want) {
		t.Fatal("stepping the restored optimizer wrote into the payload bytes")
	}
	w := codec.NewWriter()
	EncodePayload(w, modelP)
	EncodePayload(w, optP)
	if string(w.Bytes()) != string(want) {
		t.Fatal("payloads re-encode differently after the restored state moved on")
	}
}

// TestRestoreIntoLiveBuffersAllocatesNoBackingArrays is the allocation
// guard for the copy-once restore: once the live model and optimizer own
// their buffers, restoring a decoded checkpoint into them copies into those
// buffers and allocates only small bookkeeping, the same amount whatever the
// parameter size.
func TestRestoreIntoLiveBuffersAllocatesNoBackingArrays(t *testing.T) {
	measure := func(width int) (allocs float64, bytesPerRun uint64) {
		mv, ov, modelP, optP, _ := restorePair(t, width)
		restore := func() {
			if err := mv.Restore(modelP); err != nil {
				t.Fatal(err)
			}
			if err := ov.Restore(optP); err != nil {
				t.Fatal(err)
			}
		}
		restore() // the first restore creates the velocity buffers
		allocs = testing.AllocsPerRun(50, restore)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			restore()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, _ := measure(4)
	const width = 256
	bigAllocs, bigBytes := measure(width)
	if bigAllocs != smallAllocs {
		t.Fatalf("restore allocates %.1f times at width %d but %.1f at width 4: allocation count grows with parameter size",
			bigAllocs, width, smallAllocs)
	}
	// The smallest backing array at this width is the bias, 8*width bytes.
	if bigBytes >= 8*width {
		t.Fatalf("restore allocated %d bytes per run at width %d: a tensor backing array is being allocated", bigBytes, width)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	m := nn.NewLinear("fc", xrand.New(1), 4, 4)
	vals := []Value{
		&Int{}, &Float{}, &String{V: "x"}, &Bool{},
		&Tensor{T: tensor.New(3)},
		&Model{M: m},
		&Optimizer{O: opt.NewSGD(m, 0.1, 0.9, 0)},
		&Scheduler{S: opt.NewStepLR(opt.NewSGD(m, 0.1, 0, 0), 1, 0.5)},
		&RNG{R: xrand.New(1)},
	}
	for _, v := range vals {
		if v.SizeBytes() <= 0 {
			t.Fatalf("%s SizeBytes = %d", v.Kind(), v.SizeBytes())
		}
	}
}

func TestModelSizeTracksParameters(t *testing.T) {
	small := &Model{M: nn.NewLinear("fc", xrand.New(1), 4, 4)}
	big := &Model{M: nn.NewLinear("fc", xrand.New(1), 64, 64)}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("larger model reported smaller size")
	}
}

func TestDecodeUnknownKindFails(t *testing.T) {
	w := codec.NewWriter()
	w.Uvarint(200)
	if _, err := DecodeTaggedPayload(codec.NewReader(w.Bytes())); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestQuickIntPayloadRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		w := codec.NewWriter()
		EncodePayload(w, IntPayload(v))
		got, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
		return err == nil && got.(IntPayload) == IntPayload(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRNGPayloadRoundTrip(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := xrand.New(seed)
		for i := 0; i < int(draws); i++ {
			r.Uint32()
		}
		rv := &RNG{R: r}
		w := codec.NewWriter()
		EncodePayload(w, rv.Snapshot())
		p, err := DecodeTaggedPayload(codec.NewReader(w.Bytes()))
		if err != nil {
			return false
		}
		r2 := &RNG{R: xrand.New(0)}
		if err := r2.Restore(p); err != nil {
			return false
		}
		return r2.R.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLazyTensorPayloadEquivalence pins that the lazy wire-view form decoded
// by DecodePayload behaves identically to the materialized form: same encoded
// bytes, same restore result, same reported size, on-demand materialization.
func TestLazyTensorPayloadEquivalence(t *testing.T) {
	orig := tensor.Randn(xrand.New(9), 1, 5, 7)
	eager := TensorPayload{T: orig.Clone()}
	lazy := encodeDecode(t, eager).(TensorPayload)
	if lazy.T != nil {
		t.Fatal("decoded tensor payload materialized eagerly")
	}
	if got, want := lazy.SizeBytes(), eager.SizeBytes(); got != want {
		t.Fatalf("lazy SizeBytes = %d, eager = %d", got, want)
	}
	// Re-encoding the lazy form is byte-identical to encoding the tensor.
	we, wl := codec.NewWriter(), codec.NewWriter()
	EncodePayload(we, eager)
	EncodePayload(wl, lazy)
	if string(we.Bytes()) != string(wl.Bytes()) {
		t.Fatal("lazy re-encode diverges from materialized encode")
	}
	if !tensor.Equal(lazy.Tensor(), orig) {
		t.Fatal("on-demand materialization diverges")
	}
	// Restore through the zero-copy path writes through to live storage.
	live := &Tensor{T: tensor.New(5, 7)}
	if err := live.Restore(lazy); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(live.T, orig) {
		t.Fatal("lazy restore diverges")
	}
	// Shape mismatches are still rejected before any bytes move.
	bad := &Tensor{T: tensor.New(7, 5)}
	if err := bad.Restore(lazy); err == nil {
		t.Fatal("shape-mismatched lazy restore succeeded")
	}
}
