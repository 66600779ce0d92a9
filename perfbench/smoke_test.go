package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// results against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload briefly, untraced and traced, through
// run.sh, and checks that each result is correct and carries exactly the
// metrics BENCHMARK.json names, finite and with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real binaries")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, wl := range spec.Workloads {
		named[wl.Name] = true
	}
	for _, wl := range workloads {
		delete(named, wl.name)
	}
	if len(named) > 0 {
		t.Fatalf("BENCHMARK.json names workloads the benchmark lacks: %v", named)
	}
	// Every workload runs, including any BENCHMARK.json leaves out.
	for _, wl := range workloads {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res := runOnce(t, wl.name, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%d: metrics %v, want %d of them", wl.name, trace, got, len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: no metric %s", wl.name, trace, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", wl.name, trace, m.Name, v.Value)
				case v.Unit != m.Unit || metricUnits[m.Name] != m.Unit:
					t.Errorf("%s trace=%d: %s unit %q, BENCHMARK.json says %q", wl.name, trace, m.Name, v.Unit, m.Unit)
				}
			}
		}
	}
}

func runOnce(t *testing.T, workload string, trace int) result {
	t.Helper()
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", "7",
		"--seconds", "1", "--trace", []string{"0", "1"}[trace])
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line: %v\n%s", workload, trace, err, out)
	}
	return res
}
