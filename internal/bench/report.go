package bench

import (
	"encoding/json"
	"io"

	"gmpregel/internal/chaos"
	"gmpregel/internal/core"
	"gmpregel/internal/obs"
)

// Meta records the harness configuration that produced a Report,
// including the machine shape (GoMaxProcs is the scheduler's effective
// parallelism, NumCPU the hardware's) so archived reports from
// different runners stay comparable.
type Meta struct {
	Scale      int   `json:"scale"`
	Workers    int   `json:"workers"`
	Trials     int   `json:"trials"`
	Seed       int64 `json:"seed"`
	GoMaxProcs int   `json:"gomaxprocs"`
	NumCPU     int   `json:"numcpu"`
}

// Report is the machine-readable form of a gmbench invocation: one
// optional section per table/figure mode, plus the trace-derived skew
// report when the run was traced. It is what `gmbench -json` emits.
type Report struct {
	Meta     Meta             `json:"meta"`
	Table1   []Table1Row      `json:"table1,omitempty"`
	Table2   []Table2Row      `json:"table2,omitempty"`
	Table3   *Table3Summary   `json:"table3,omitempty"`
	Figure6  []Fig6Row        `json:"figure6,omitempty"`
	BC       *BCReport        `json:"bc,omitempty"`
	Ablation []AblationRow    `json:"ablation,omitempty"`
	Activity *ActivityProfile `json:"activity,omitempty"`
	Recovery []RecoveryRow    `json:"recovery,omitempty"`
	Scaling  *ScalingReport   `json:"scaling,omitempty"`
	Skew     *obs.SkewReport  `json:"skew,omitempty"`
	Chaos    *chaos.Report    `json:"chaos,omitempty"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Table3Summary is the JSON-able form of the Table 3 transformation
// matrix: which compiler rules fired for which algorithm, and which
// programs compiled free of analyzer warnings.
type Table3Summary struct {
	Rules       []string            `json:"rules"`
	Applied     map[string][]string `json:"applied"`
	WarningFree map[string]bool     `json:"warning_free"`
}

// NewTable3Summary converts the per-algorithm traces returned by Table3
// into the machine-readable matrix.
func NewTable3Summary(traces map[string]*core.Trace) (*Table3Summary, error) {
	s := &Table3Summary{
		Applied:     map[string][]string{},
		WarningFree: map[string]bool{},
	}
	for _, r := range core.Rules() {
		s.Rules = append(s.Rules, r.String())
	}
	for name, tr := range traces {
		applied := []string{}
		for _, r := range core.Rules() {
			if tr.Applied(r) {
				applied = append(applied, r.String())
			}
		}
		s.Applied[name] = applied
		c, err := CompiledProgram(name)
		if err != nil {
			return nil, err
		}
		s.WarningFree[name] = c.Program.Analysis != nil && c.Program.Analysis.WarningFree
	}
	return s, nil
}
