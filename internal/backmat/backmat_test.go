package backmat

import (
	"bytes"
	"fmt"
	"testing"

	"flor.dev/flor/internal/ckptfmt"
	"flor.dev/flor/internal/codec"
	"flor.dev/flor/internal/nn"
	"flor.dev/flor/internal/opt"
	"flor.dev/flor/internal/store"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
	"flor.dev/flor/internal/xrand"
)

func newStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sampleValues(n, tensorLen int) []NamedValue {
	vals := make([]NamedValue, n)
	for i := range vals {
		vals[i] = NamedValue{
			Name: fmt.Sprintf("var%d", i),
			V:    &value.Tensor{T: tensor.Randn(xrand.New(uint64(i)+1), 1, tensorLen)},
		}
	}
	return vals
}

func TestBundleRoundTrip(t *testing.T) {
	vals := sampleValues(3, 16)
	items := make([]NamedPayload, len(vals))
	for i, nv := range vals {
		items[i] = NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()}
	}
	enc := EncodeBundle(items)
	got, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d items", len(got))
	}
	for i, it := range got {
		if it.Name != fmt.Sprintf("var%d", i) {
			t.Fatalf("item %d name %q", i, it.Name)
		}
		orig := items[i].Payload.(value.TensorPayload).Tensor()
		dec := it.Payload.(value.TensorPayload).Tensor()
		if !tensor.Equal(orig, dec) {
			t.Fatalf("item %d tensor mismatch", i)
		}
	}
}

func TestSectionsRoundTripAndBundleEquivalence(t *testing.T) {
	vals := sampleValues(5, 64)
	items := make([]NamedPayload, len(vals))
	for i, nv := range vals {
		items[i] = NamedPayload{Name: nv.Name, Payload: nv.V.Snapshot()}
	}
	secs := EncodeSections(items)
	// The section path must be byte-equivalent to the monolithic encoder.
	if got, want := BundleBytes(secs), EncodeBundle(items); !bytes.Equal(got, want) {
		t.Fatal("BundleBytes(EncodeSections(items)) != EncodeBundle(items)")
	}
	dec, err := DecodeSections(secs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range dec {
		if it.Name != items[i].Name {
			t.Fatalf("item %d name %q", i, it.Name)
		}
		if !tensor.Equal(it.Payload.(value.TensorPayload).Tensor(), items[i].Payload.(value.TensorPayload).Tensor()) {
			t.Fatalf("item %d tensor mismatch", i)
		}
	}
}

func TestDecodeSectionsRejectsGarbage(t *testing.T) {
	secs := []store.Section{{Name: "w", Data: []byte{0xff, 0xff, 0xff}}}
	if _, err := DecodeSections(secs); err == nil {
		t.Fatal("garbage section decoded")
	}
}

func TestFrozenStateDedupsAcrossMaterializations(t *testing.T) {
	// A frozen model checkpointed every epoch must hit the store's chunk
	// dedup: only the first materialization pays for its bytes.
	st := newStore(t)
	m := New(st, Fork)
	frozen := &value.Tensor{T: tensor.Randn(xrand.New(99), 1, 1<<16)}
	for e := 0; e < 4; e++ {
		m.Materialize(store.Key{LoopID: "train", Exec: e},
			[]NamedValue{{Name: "net", V: frozen}}, 0)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.BytesWritten < 4*(1<<19) { // 4 epochs × 64Ki floats × 8 bytes
		t.Fatalf("BytesWritten = %d, want full logical volume", stats.BytesWritten)
	}
	if stats.StoredBytes > stats.BytesWritten/2 {
		t.Fatalf("StoredBytes = %d of %d logical; frozen state not deduped",
			stats.StoredBytes, stats.BytesWritten)
	}
	if r := st.Dedup().Ratio(); r < 3 {
		t.Fatalf("dedup ratio = %.2f, want ~4 for 4 identical checkpoints", r)
	}
}

func TestBundleDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeBundle([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("garbage bundle decoded")
	}
}

func TestEveryStrategyCommitsIdenticalCheckpoints(t *testing.T) {
	for _, strat := range []Strategy{Baseline, Queue, Plasma, Fork} {
		t.Run(strat.String(), func(t *testing.T) {
			st := newStore(t)
			m := New(st, strat)
			vals := sampleValues(4, 64)
			key := store.Key{LoopID: "train", Exec: 0}
			m.Materialize(key, vals, 1000)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := st.Get(key)
			if err != nil {
				t.Fatalf("checkpoint missing after %s: %v", strat, err)
			}
			items, err := DecodeBundle(raw)
			if err != nil {
				t.Fatal(err)
			}
			if len(items) != 4 {
				t.Fatalf("bundle has %d items, want 4", len(items))
			}
			for i, it := range items {
				live := vals[i].V.(*value.Tensor)
				if !tensor.Equal(it.Payload.(value.TensorPayload).Tensor(), live.T) {
					t.Fatalf("strategy %s: item %q state mismatch", strat, it.Name)
				}
			}
		})
	}
}

func TestSnapshotIsolatesFromPostMaterializeMutation(t *testing.T) {
	// After Materialize returns, the training loop continues mutating live
	// values; the checkpoint must reflect the state at snapshot time.
	st := newStore(t)
	m := New(st, Fork)
	live := &value.Tensor{T: tensor.Full(1, 256)}
	key := store.Key{LoopID: "train", Exec: 0}
	m.Materialize(key, []NamedValue{{Name: "w", V: live}}, 0)
	live.T.Fill(999) // simulated next-epoch mutation racing the background write
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	items, _ := DecodeBundle(raw)
	if got := items[0].Payload.(value.TensorPayload).Tensor().At(0); got != 1 {
		t.Fatalf("checkpoint captured post-snapshot state: %g", got)
	}
}

func TestDrainFlushesAndStaysUsable(t *testing.T) {
	st := newStore(t)
	m := New(st, Fork)
	defer m.Close()
	k0 := store.Key{LoopID: "L", Exec: 0}
	m.Materialize(k0, sampleValues(2, 32), 0)
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !st.Has(k0) {
		t.Fatal("checkpoint not committed after Drain")
	}
	k1 := store.Key{LoopID: "L", Exec: 1}
	m.Materialize(k1, sampleValues(2, 32), 0)
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !st.Has(k1) {
		t.Fatal("materializer unusable after Drain")
	}
}

func TestStatsAccounting(t *testing.T) {
	st := newStore(t)
	m := New(st, Fork)
	for i := 0; i < 5; i++ {
		m.Materialize(store.Key{LoopID: "L", Exec: i}, sampleValues(2, 128), 0)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	if stats.Checkpoints != 5 {
		t.Fatalf("Checkpoints = %d", stats.Checkpoints)
	}
	if stats.CallerNs <= 0 || stats.SnapshotNs <= 0 {
		t.Fatalf("caller-side timings not recorded: %+v", stats)
	}
	if stats.SerializeNs <= 0 || stats.WriteNs <= 0 || stats.BytesWritten <= 0 {
		t.Fatalf("background timings not recorded: %+v", stats)
	}
	if stats.MaxLiveWorkers < 1 {
		t.Fatalf("MaxLiveWorkers = %d", stats.MaxLiveWorkers)
	}
}

func TestBackgroundStrategiesDontPaySerializationOnCaller(t *testing.T) {
	// The defining property of Fork/Plasma vs Baseline (Fig 5): caller time
	// excludes serialization. We verify structurally: for Fork, the caller
	// time equals snapshot time plus handoff, and SerializeNs is accounted
	// to the background, not the caller.
	st := newStore(t)
	m := New(st, Fork)
	m.Materialize(store.Key{LoopID: "L", Exec: 0}, sampleValues(1, 1<<16), 0)
	callerBeforeDrain := m.Stats().CallerNs
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	stats := m.Stats()
	// Serialization of a 64K-element tensor dwarfs a snapshot memcpy; if the
	// caller had paid for it, CallerNs would be >= SerializeNs.
	if callerBeforeDrain > stats.SnapshotNs+stats.SerializeNs/2 {
		t.Fatalf("Fork caller paid for serialization: caller=%d snap=%d ser=%d",
			callerBeforeDrain, stats.SnapshotNs, stats.SerializeNs)
	}
}

func TestObserverSeesCommittedMetas(t *testing.T) {
	st := newStore(t)
	m := New(st, Fork)
	ch := make(chan *store.Meta, 8)
	m.SetObserver(func(meta *store.Meta) { ch <- meta })
	m.Materialize(store.Key{LoopID: "L", Exec: 0}, sampleValues(1, 64), 777)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case meta := <-ch:
		if meta.Key.LoopID != "L" || meta.ComputNs != 777 {
			t.Fatalf("observer meta wrong: %+v", meta)
		}
		if meta.MaterNs <= 0 {
			t.Fatalf("observer meta has no materialization time: %+v", meta)
		}
	default:
		t.Fatal("observer never called")
	}
}

func TestLatestCheckpointWinsAcrossStrategies(t *testing.T) {
	st := newStore(t)
	m := New(st, Queue)
	key := store.Key{LoopID: "L", Exec: 0}
	v := &value.Tensor{T: tensor.Full(1, 8)}
	m.Materialize(key, []NamedValue{{Name: "w", V: v}}, 0)
	v.T.Fill(2)
	m.Materialize(key, []NamedValue{{Name: "w", V: v}}, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := st.Get(key)
	items, _ := DecodeBundle(raw)
	if got := items[0].Payload.(value.TensorPayload).Tensor().At(0); got != 2 {
		t.Fatalf("latest checkpoint not served: %g", got)
	}
}

func TestMixedKindBundle(t *testing.T) {
	st := newStore(t)
	m := New(st, Fork)
	rng := xrand.New(5)
	rng.Uint64()
	vals := []NamedValue{
		{Name: "epoch", V: &value.Int{V: 7}},
		{Name: "loss", V: &value.Float{V: 0.25}},
		{Name: "rng", V: &value.RNG{R: rng}},
		{Name: "w", V: &value.Tensor{T: tensor.Full(3, 4)}},
	}
	key := store.Key{LoopID: "L", Exec: 0}
	m.Materialize(key, vals, 0)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	raw, _ := st.Get(key)
	items, err := DecodeBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]value.Kind{}
	for _, it := range items {
		kinds[it.Name] = it.Payload.Kind()
	}
	if kinds["epoch"] != value.KindInt || kinds["loss"] != value.KindFloat ||
		kinds["rng"] != value.KindRNG || kinds["w"] != value.KindTensor {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

// TestPayloadCacheOwnsAdmittedBuffers restores one checkpoint twice through
// one PayloadCache, so the second touch admits its sections, then restores
// other checkpoints that cycle the restore arena and scribbles over every
// buffer the arena hands out. The cached payloads alias the buffers their
// admission kept, so they must still re-encode to the checkpoint's bytes.
func TestPayloadCacheOwnsAdmittedBuffers(t *testing.T) {
	st := newStore(t)
	m := New(st, Baseline)
	model := nn.NewLinear("fc", xrand.New(1), 24, 24)
	sgd := opt.NewSGD(model, 0.1, 0.9, 0)
	w := &value.Tensor{T: tensor.Randn(xrand.New(2), 1, 300)}
	for e := 0; e < 4; e++ {
		for _, p := range model.Params() {
			p.Var.Grad = tensor.Full(float64(e+1), p.Var.Value.Shape()...)
		}
		sgd.Step()
		w.T.Fill(float64(e))
		m.Materialize(store.Key{LoopID: "L", Exec: e}, []NamedValue{
			{Name: "net", V: &value.Model{M: model}},
			{Name: "opt", V: &value.Optimizer{O: sgd}},
			{Name: "w", V: w},
		}, 0)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	k0 := store.Key{LoopID: "L", Exec: 0}
	ref, ok, err := st.GetSections(k0, nil)
	if err != nil || !ok {
		t.Fatalf("reference read: ok=%v err=%v", ok, err)
	}
	want := map[string][]byte{}
	for _, sec := range ref {
		want[sec.Name] = append([]byte(nil), sec.Data...)
	}

	cache := NewPayloadCache(0)
	// restore mirrors skipblock's restore: decode through the cache, then
	// hand every buffer the cache did not keep back to the arena. It
	// returns the decoded items and how many buffers went back.
	restore := func(key store.Key) ([]NamedPayload, int) {
		t.Helper()
		secs, ok, err := st.GetSections(key, cache.Contains)
		if err != nil || !ok {
			t.Fatalf("%s: ok=%v err=%v", key, ok, err)
		}
		items, err := DecodeSectionsCached(cache, secs)
		if err != nil {
			t.Fatal(err)
		}
		returned := 0
		for _, sec := range secs {
			if sec.Data != nil {
				ckptfmt.Shared.Put(sec.Data)
				returned++
			}
		}
		return items, returned
	}
	checkCached := func(when string) {
		t.Helper()
		items, returned := restore(k0)
		if returned != 0 {
			t.Fatalf("%s: %d buffers loaded for fully cached content", when, returned)
		}
		for _, it := range items {
			enc := codec.NewWriter()
			value.EncodePayload(enc, it.Payload)
			if !bytes.Equal(enc.Bytes(), want[it.Name]) {
				t.Fatalf("%s: cached payload %q re-encodes differently", when, it.Name)
			}
		}
	}

	if _, returned := restore(k0); returned != len(ref) {
		t.Fatalf("first touch returned %d buffers, want all %d", returned, len(ref))
	}
	if _, returned := restore(k0); returned != 0 {
		t.Fatalf("admitting touch returned %d buffers to the arena, want 0", returned)
	}
	if got := cache.Stats().Admits; got != int64(len(ref)) {
		t.Fatalf("admits = %d, want %d", got, len(ref))
	}
	checkCached("after admission")
	for round := 0; round < 3; round++ {
		for e := 1; e < 4; e++ {
			restore(store.Key{LoopID: "L", Exec: e})
		}
		for _, sec := range ref {
			for i := 0; i < 4; i++ {
				b := ckptfmt.Shared.Get(len(sec.Data))
				for j := range b {
					b[j] = 0xa5
				}
				ckptfmt.Shared.Put(b)
			}
		}
	}
	checkCached("after cycling the arena")
}
