package replay_test

import (
	"strings"
	"testing"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/replay"
	"flor.dev/flor/internal/script"
	"flor.dev/flor/internal/workloads"
)

// TestReplayOracle compares hindsight replay with ground truth: for every
// Table 3 workload, with the probe outside or inside the training loop,
// under every scheduler and both init modes, the probe lines a G=2 replay of
// a dense recording produces must be byte-identical to those a vanilla
// (uninstrumented) run of the same probed program logs, with no anomalies
// against the record log.
func TestReplayOracle(t *testing.T) {
	probes := []struct {
		name, label string
		wrap        func(func() *script.Program) func() *script.Program
	}{
		{"outer", "hindsight_weight_norm", workloads.WithOuterProbe},
		{"inner", "hindsight_grad_norm", workloads.WithInnerProbe},
	}
	for _, spec := range workloads.All() {
		factory := spec.Build(workloads.Smoke)
		rec := record(t, factory)
		for _, pr := range probes {
			probed := pr.wrap(factory)
			vanilla, _, err := core.Vanilla(probed)
			if err != nil {
				t.Fatalf("%s/%s: vanilla: %v", spec.Name, pr.name, err)
			}
			want := linesLabelled(vanilla, pr.label)
			if len(want) == 0 {
				t.Fatalf("%s/%s: vanilla run logged no probe lines", spec.Name, pr.name)
			}
			for _, policy := range []replay.Scheduler{replay.SchedStatic, replay.SchedBalanced, replay.SchedStealing} {
				for _, init := range []replay.InitMode{replay.Strong, replay.Weak} {
					t.Run(spec.Name+"/"+pr.name+"/"+policy.String()+"/"+init.String(), func(t *testing.T) {
						res, err := replay.Replay(rec.Recording, probed, replay.Options{Workers: 2, Scheduler: policy, Init: init})
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Anomalies) != 0 {
							t.Fatalf("anomalies: %v", res.Anomalies)
						}
						got := linesLabelled(res.Logs, pr.label)
						if len(got) != len(want) {
							t.Fatalf("%d probe lines, vanilla logged %d", len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("probe line %d = %q, vanilla logged %q", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// linesLabelled returns the log lines a log statement with the given label
// produced, in order.
func linesLabelled(logs []string, label string) []string {
	var out []string
	for _, l := range logs {
		if strings.HasPrefix(l, label+": ") {
			out = append(out, l)
		}
	}
	return out
}
