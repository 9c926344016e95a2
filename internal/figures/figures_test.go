package figures

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seg"
)

func TestFigure1Content(t *testing.T) {
	out := Figure1()
	if !strings.Contains(out, "Figure 1") {
		t.Error("missing title")
	}
	// Write bracket [0,4]: exactly five #'s on the write row.
	for _, ln := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(ln)
		if strings.HasPrefix(trimmed, "write") {
			if got := strings.Count(ln, "#"); got != 5 {
				t.Errorf("write row has %d marks, want 5: %q", got, ln)
			}
		}
		if strings.HasPrefix(trimmed, "read") {
			if got := strings.Count(ln, "#"); got != 6 {
				t.Errorf("read row has %d marks, want 6: %q", got, ln)
			}
		}
		if strings.HasPrefix(trimmed, "execute") {
			if got := strings.Count(ln, "#"); got != 0 {
				t.Errorf("execute row has %d marks, want 0: %q", got, ln)
			}
		}
	}
	if !strings.Contains(out, "R1=4 R2=5 R3=5") {
		t.Errorf("bracket summary missing: %s", out)
	}
}

func TestFigure2Content(t *testing.T) {
	out := Figure2()
	for _, ln := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(ln)
		if strings.HasPrefix(trimmed, "execute") {
			if got := strings.Count(ln, "#"); got != 1 {
				t.Errorf("execute row has %d marks, want 1 (ring 3 only): %q", got, ln)
			}
		}
		if strings.HasPrefix(trimmed, "call via gate") {
			if got := strings.Count(ln, "#"); got != 2 {
				t.Errorf("gate row has %d marks, want 2 (rings 4-5): %q", got, ln)
			}
		}
		if strings.HasPrefix(trimmed, "write") {
			if got := strings.Count(ln, "#"); got != 0 {
				t.Errorf("write row has %d marks, want 0: %q", got, ln)
			}
		}
	}
}

func TestFigure3ListsAllFormats(t *testing.T) {
	out := Figure3()
	for _, want := range []string{"SDW even", "SDW odd", "Instruction word", "Indirect word", "TPR", "OPCODE", "GATE", "BOUND", "RING"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 missing %q", want)
		}
	}
}

func TestViewsValidate(t *testing.T) {
	if err := seg.FromView(Figure1View()).Validate(); err != nil {
		t.Error(err)
	}
	if err := seg.FromView(Figure2View()).Validate(); err != nil {
		t.Error(err)
	}
}

func TestAccessDiagramArbitraryView(t *testing.T) {
	v := core.SDWView{
		Present: true, Read: true, Write: true, Execute: true,
		Brackets:  core.Brackets{R1: 0, R2: 0, R3: 7},
		GateCount: 1, Bound: 16,
	}
	out := AccessDiagram("gate into ring 0", v)
	if !strings.Contains(out, "gate into ring 0") {
		t.Error("title missing")
	}
	// Gate extension (0,7] with gates: 7 marks on the gate row.
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(ln), "call via gate") {
			if got := strings.Count(ln, "#"); got != 7 {
				t.Errorf("gate row: %q", ln)
			}
		}
	}
}
