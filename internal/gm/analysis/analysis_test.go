package analysis

import (
	"strings"
	"testing"
)

// has reports whether the list contains a diagnostic with the code.
func has(l List, code string) bool {
	for _, d := range l {
		if d.Code == code {
			return true
		}
	}
	return false
}

func find(l List, code string) *Diagnostic {
	for i := range l {
		if l[i].Code == code {
			return &l[i]
		}
	}
	return nil
}

func TestDiagnoseParseError(t *testing.T) {
	l := Diagnose("Procedure broken(")
	if !has(l, CodeParse) || !l.HasErrors() {
		t.Fatalf("want GM0001, got %v", l)
	}
}

func TestDiagnoseSemaErrorsAccumulate(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph) {
		x = 1;
		y = 2;
		Int z = True + 1;
	}`)
	n := 0
	for _, d := range l {
		if d.Code == CodeSema {
			n++
		}
	}
	if n < 3 {
		t.Fatalf("want >=3 GM1001, got %v", l)
	}
}

func TestWriteConflict(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, v: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) { t.v = 1; }
		}
	}`)
	d := find(l, CodeWriteConflict)
	if d == nil {
		t.Fatalf("want GM2001, got %v", l)
	}
	if d.Severity != SevWarning || d.Hint == "" {
		t.Errorf("GM2001 should be a warning with a hint: %+v", d)
	}
	if d.Pos.Line != 3 {
		t.Errorf("GM2001 at line %d, want 3", d.Pos.Line)
	}

	// Reduction assignments merge deterministically: no conflict.
	l = Diagnose(`Procedure f(G: Graph, v: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) { t.v += 1; }
		}
	}`)
	if has(l, CodeWriteConflict) {
		t.Errorf("reduction write flagged as conflict: %v", l)
	}
}

func TestScalarAnyWinsConflict(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph) {
		Int x = 0;
		Foreach (n: G.Nodes) { x = 1; }
	}`)
	if !has(l, CodeWriteConflict) {
		t.Fatalf("plain scalar write in parallel should warn: %v", l)
	}
}

func TestHazard(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, r: Node_Prop<Double>) {
		Foreach (n: G.Nodes) {
			n.r = Sum(w: n.Nbrs)(w.r);
		}
	}`)
	if !has(l, CodeCrossStepHazard) || !has(l, CodeHazardPayload) {
		t.Fatalf("want GM2002 and GM4002, got %v", l)
	}

	// Reading a different property is no hazard.
	l = Diagnose(`Procedure f(G: Graph, r: Node_Prop<Double>, s: Node_Prop<Double>) {
		Foreach (n: G.Nodes) {
			n.s = Sum(w: n.Nbrs)(w.r);
		}
	}`)
	if has(l, CodeCrossStepHazard) || has(l, CodeHazardPayload) {
		t.Errorf("no-hazard program flagged: %v", l)
	}
}

func TestBFSLevelsExemptFromHazard(t *testing.T) {
	// bc-style: UpNbrs reads are ordered by BFS levels, not racy.
	l := Diagnose(`Procedure f(G: Graph, root: Node, sig: Node_Prop<Double>) {
		G.sig = 0.0;
		InBFS (v: G.Nodes from root) {
			v.sig += Sum(w: v.UpNbrs)(w.sig);
		}
	}`)
	if has(l, CodeCrossStepHazard) {
		t.Errorf("UpNbrs read flagged as hazard: %v", l)
	}
}

func TestLiveness(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, out: Node_Prop<Int>) {
		Node_Prop<Int> unused;
		Node_Prop<Int> scratch;
		Foreach (n: G.Nodes) { n.scratch = 1; n.out = 2; }
	}`)
	if !has(l, CodeUnusedProp) || !has(l, CodeDeadWrite) {
		t.Fatalf("want GM3001 and GM3002, got %v", l)
	}
	// The written-but-never-read parameter `out` is exempt.
	for _, d := range l {
		if d.Code == CodeDeadWrite && strings.Contains(d.Msg, `"out"`) {
			t.Errorf("output parameter flagged as dead write: %v", d)
		}
	}

	l = Diagnose(`Procedure f(G: Graph, out: Node_Prop<Int>) {
		Node_Prop<Int> tmp;
		Foreach (n: G.Nodes) { n.tmp = 1; }
		Foreach (n: G.Nodes) { n.out = n.tmp; }
	}`)
	if has(l, CodeUnusedProp) || has(l, CodeDeadWrite) {
		t.Errorf("live property flagged: %v", l)
	}
}

func TestPayloadEstimate(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, d: Node_Prop<Int>, len: Edge_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				Edge e = t.ToEdge();
				t.d min= n.d + e.len;
			}
		}
	}`)
	d := find(l, CodePayload)
	if d == nil {
		t.Fatalf("want GM4001, got %v", l)
	}
	if !strings.Contains(d.Msg, "1 message field(s)") || !strings.Contains(d.Msg, "~8 payload byte(s)") {
		t.Errorf("payload estimate wrong: %s", d.Msg)
	}

	// Arrival-only communication: bare message.
	l = Diagnose(`Procedure f(G: Graph, c: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) { t.c += 1; }
		}
	}`)
	d = find(l, CodePayload)
	if d == nil || !strings.Contains(d.Msg, "bare message") {
		t.Errorf("constant-contribution message should be bare: %v", l)
	}
}

func TestPayloadOverflow(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, k: Node_Prop<Double>, a: Node_Prop<Double>, b: Node_Prop<Double>, c: Node_Prop<Double>, d2: Node_Prop<Double>, f2: Node_Prop<Double>, s: Node_Prop<Double>) {
		Foreach (n: G.Nodes) {
			n.s = Sum(w: n.Nbrs)(n.k*w.a + n.k*w.b + n.k*w.c + n.k*w.d2 + n.k*w.f2);
		}
	}`)
	d := find(l, CodePayloadOverflow)
	if d == nil || d.Severity != SevError {
		t.Fatalf("5 fields should overflow the slot budget as an error: %v", l)
	}

	// Exactly at the budget: fine.
	l = Diagnose(`Procedure f(G: Graph, k: Node_Prop<Double>, a: Node_Prop<Double>, b: Node_Prop<Double>, c: Node_Prop<Double>, d2: Node_Prop<Double>, s: Node_Prop<Double>) {
		Foreach (n: G.Nodes) {
			n.s = Sum(w: n.Nbrs)(n.k*w.a + n.k*w.b + n.k*w.c + n.k*w.d2);
		}
	}`)
	if has(l, CodePayloadOverflow) {
		t.Errorf("4 fields flagged as overflow: %v", l)
	}
}

func TestCanonicalizability(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, v: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (m: G.Nodes) { m.v += n.v; }
		}
	}`)
	d := find(l, CodeParallelNest)
	if d == nil || d.Severity != SevError {
		t.Fatalf("want GM5006 error, got %v", l)
	}

	l = Diagnose(`Procedure f(G: Graph, v: Node_Prop<Int>) {
		Int i = 0;
		While (i < 3) {
			Foreach (n: G.Nodes) { Foreach (t: n.Nbrs) { t.v += 1; } }
			i = i + 1;
		}
	}`)
	if !has(l, CodeLoopDissect) {
		t.Errorf("sequential loop around parallel work should note dissection: %v", l)
	}
}

func TestDeepNesting(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, v: Node_Prop<Int>) {
		Foreach (n: G.Nodes) {
			Foreach (t: n.Nbrs) {
				Foreach (u: t.Nbrs) { u.v += 1; }
			}
		}
	}`)
	d := find(l, CodeDeepNest)
	if d == nil || d.Severity != SevError {
		t.Fatalf("two nested neighbor loops should be GM5009, got %v", l)
	}
}

func TestDiagnosticsAreSorted(t *testing.T) {
	l := Diagnose(`Procedure f(G: Graph, r: Node_Prop<Double>) {
		Node_Prop<Double> unused;
		Foreach (n: G.Nodes) {
			n.r = Sum(w: n.Nbrs)(w.r);
		}
	}`)
	for i := 1; i < len(l); i++ {
		a, b := l[i-1], l[i]
		if a.Pos.Line > b.Pos.Line || (a.Pos.Line == b.Pos.Line && a.Pos.Col > b.Pos.Col) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}
