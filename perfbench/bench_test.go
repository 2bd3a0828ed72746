package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"qurator/internal/telemetry"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return spec
}

// TestWorkloadsReportDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks that the printed metrics are exactly the ones
// BENCHMARK.json declares, with their units, and that every oracle passed.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(builders) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(builders))
	}
	for _, w := range spec.Workloads {
		if _, ok := builders[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rec, err := run(context.Background(), options{workload: w.Name, seed: 7, seconds: 1, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d checks=%v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, rec.Checks)
			}
			if rec.Checks["passed"] == 0 {
				t.Errorf("%s trace=%v: no oracle check ran", w.Name, trace)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %q is not declared", w.Name, trace, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: metric %q in %q, declared %q", w.Name, trace, name, m.Unit, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q is %v", w.Name, name, m.Value)
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: printed %d metrics %v, declared %d", w.Name, trace, len(got), got, len(want))
			}
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	span := func(name string, from, to int, kids ...*telemetry.SpanTree) *telemetry.SpanTree {
		return &telemetry.SpanTree{SpanData: telemetry.SpanData{Name: name, Start: at(from), End: at(to)}, Children: kids}
	}
	// Two concurrent QAs overlap on [20,30); a third child sits apart.
	root := span("workflow:v", 0, 100,
		span("QA:a", 10, 30),
		span("QA:b", 20, 40),
		span("Action:keep", 60, 70))
	if got, want := selfTime(root), 60*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	var tr tracer
	tr.addTree(telemetry.TraceTree{Root: root})
	if got := tr.selfMS(kindQAProc); got != 40 {
		t.Fatalf("QA self time %vms, want 40ms", got)
	}
	if got := tr.selfMS(kindWorkflow, kindQAProc, kindAction); got != 110 {
		t.Fatalf("all self time %vms, want 110ms (children overlap)", got)
	}
}
