package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// runShort runs a workload for one second and decodes its result line.
func runShort(t *testing.T, o options) (*report, result) {
	t.Helper()
	o.seconds = 1
	o.nproc = runtime.NumCPU()
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := write(&out, o, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return rep, res
}

// TestMetricsEmitted checks that every workload prints every metric by
// name with its unit, in both modes, with every output check passing,
// and that the exact counts repeat across two traced runs of a seed.
func TestMetricsEmitted(t *testing.T) {
	exact := []string{
		"graph.nodes", "graph.edges", "core.vertex_states", "core.msg_types",
		"machine.vertex_calls_ratio", "pregel.supersteps", "pregel.messages",
		"pregel.net_bytes", "pregel.control_bytes", "pregel.vertex_calls", "pregel.msg_buffer_mb",
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			var traced []result
			for _, trace := range []bool{false, true, true} {
				_, res := runShort(t, options{workload: w, seed: 3, trace: trace})
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %v: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
					traced = append(traced, res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %s", trace, d.name, v, d.unit)
					}
				}
			}
			for _, name := range exact {
				if a, b := traced[0].Metrics[name], traced[1].Metrics[name]; a != b {
					t.Errorf("%s differs across runs of one seed: %v, %v", name, a.Value, b.Value)
				}
			}
		})
	}
}

// TestCorruptReferenceFails checks that a wrong reference output is
// counted as a failed operation and reported as incorrect.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			_, res := runShort(t, options{workload: w, seed: 3, corrupt: true})
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference passed: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares workloads this
// program runs and exactly the metrics it prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("%d workloads declared, want at least two", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not one the program runs (%v)", w.Name, workloadNames())
		}
	}
	for _, c := range []struct {
		kind string
		got  []def
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.want {
			want = append(want, def{d.name, d.unit, d.better})
		}
		if !reflect.DeepEqual(c.got, want) {
			t.Errorf("%s:\n got %v\nwant %v", c.kind, c.got, want)
		}
	}
}
