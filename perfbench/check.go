package main

import (
	"fmt"
	"strings"

	"flor.dev/flor/internal/replay"
)

// Probe labels the hindsight log statements of workloads.WithOuterProbe and
// workloads.WithInnerProbe write.
const (
	outerLabel = "hindsight_weight_norm"
	innerLabel = "hindsight_grad_norm"
)

// sameLogs reports the first difference between two log streams.
func sameLogs(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d log lines, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("log line %d = %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// countLabel counts log lines written by the statement labelled label.
func countLabel(logs []string, label string) int {
	n := 0
	for _, l := range logs {
		if strings.HasPrefix(l, label+":") {
			n++
		}
	}
	return n
}

// checkReplay verifies one local replay: no deferred-check anomalies,
// exactly want lines from the probe statement labelled label, and — once
// ref holds the first query's logs — output identical to that query's.
func checkReplay(res *replay.Result, label string, want int, ref *[]string) error {
	if len(res.Anomalies) > 0 {
		return fmt.Errorf("%d deferred-check anomalies (first: %s)", len(res.Anomalies), res.Anomalies[0].String())
	}
	if got := countLabel(res.Logs, label); got != want {
		return fmt.Errorf("%d %s lines, want %d", got, label, want)
	}
	if *ref == nil {
		*ref = res.Logs
		return nil
	}
	return sameLogs(*ref, res.Logs)
}
