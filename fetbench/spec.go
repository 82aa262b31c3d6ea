package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec holds the metric lists of BENCHMARK.json, the single source
// of metric names and units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return &s, nil
}

// selectMetrics builds the result's metric set for one mode from the values a
// run recorded. An untraced run must have measured every end-to-end
// metric. A traced run reports every per-layer metric; one the workload
// never exercises (a serve tier in a batch workload, a sparse topology
// on the complete graph) reads 0. A recorded value the mode's list does
// not declare is a benchmark bug.
func (s *benchSpec) selectMetrics(values map[string]float64, traced bool) (map[string]metric, error) {
	list := s.EndToEnd
	if traced {
		list = s.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(out) != len(values) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
	return out, nil
}
