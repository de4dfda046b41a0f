// Package machine defines the compiled Pregel program representation the
// Green-Marl compiler targets, and interprets it on the pregel engine.
//
// A Program is a control-flow graph whose nodes are either master blocks
// (sequential code executed inside master.compute) or vertex states
// (vertex-parallel code executed inside vertex.compute). Each superstep,
// the master runs blocks — following Goto/CondGoto terminators — until it
// reaches a vertex state, broadcasts that state's number and the scalars
// the state reads (the paper's global-objects map), and lets the vertex
// phase run; the next superstep resumes at the state's successor. This is
// exactly the state-machine structure of the paper's generated GPS code
// (§3.1, "State Machine Construction").
package machine

import (
	"fmt"
	"strings"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

// ScalarDecl declares a master scalar (a "global variable" of the
// original program, or a compiler temporary).
type ScalarDecl struct {
	Name    string
	Kind    ir.Kind
	IsParam bool
}

// PropDecl declares a vertex or edge property column.
type PropDecl struct {
	Name    string
	Kind    ir.Kind
	IsEdge  bool
	IsParam bool
}

// AggDecl declares an aggregator used to reduce vertex writes into a
// master scalar.
type AggDecl struct {
	Name string
	Kind ir.Kind
	Op   ast.AssignOp // OpAdd/OpMin/OpMax/OpAnd/OpOr, or OpSet for any-wins
}

// MsgSchema declares one message type's payload layout.
type MsgSchema struct {
	Name   string
	Fields []ir.Kind
}

// PayloadBytes is the wire size of the message payload.
func (m MsgSchema) PayloadBytes() int {
	n := 0
	for _, f := range m.Fields {
		n += f.WireSize()
	}
	return n
}

// TermKind is a master-block terminator kind.
type TermKind int

// Terminator kinds.
const (
	TGoto TermKind = iota
	TCond
	THalt
)

// Term transfers control between CFG nodes.
type Term struct {
	Kind TermKind
	Cond ir.Expr // TCond
	Then int     // TGoto/TCond target
	Else int     // TCond target
}

// MasterBlock is sequential master code plus a terminator.
type MasterBlock struct {
	Stmts []ir.Stmt
	Term  Term
}

// VertexState is one vertex-parallel state: its body runs once per
// vertex in the superstep where the state is active.
type VertexState struct {
	Name string
	Body []ir.Stmt
	// Next is the CFG node where the master resumes next superstep.
	Next int
	// ReadScalars lists master scalar slots the body reads; they are
	// broadcast through the global-objects map before the state runs.
	ReadScalars []int
	// Locals declares per-invocation temporary slots.
	Locals []ir.Kind
	// LocalNames aligns with Locals, for printing.
	LocalNames []string
}

// CFGNode is either a master block or a vertex state.
type CFGNode struct {
	Master *MasterBlock
	Vertex *VertexState
}

// LoopInfo records the CFG shape of one source While/Do-While loop, for
// the intra-loop state merging optimization.
type LoopInfo struct {
	// Cond is the node holding the loop's condition terminator.
	Cond int
	// BodyStart is the first node of the loop body.
	BodyStart int
	// BackEdge is the node whose terminator returns to the condition
	// (equal to Cond for do-while loops).
	BackEdge int
	DoWhile  bool
}

// Program is a complete compiled Pregel program.
type Program struct {
	Name    string
	Scalars []ScalarDecl
	Props   []PropDecl
	Aggs    []AggDecl
	Msgs    []MsgSchema
	Nodes   []CFGNode
	Entry   int
	Loops   []LoopInfo
	// HasReturn reports whether the program produces a return value.
	HasReturn  bool
	ReturnKind ir.Kind
	// Analysis is the front end's static-analysis verdict (nil for
	// hand-built programs); it rides along in the JSON artifact so
	// downstream tooling can report which programs compiled clean.
	Analysis *AnalysisSummary
}

// AnalysisSummary condenses the diagnostics the static analyzer emitted
// for the source procedure: severity totals and the distinct codes seen.
type AnalysisSummary struct {
	Errors      int      `json:"errors"`
	Warnings    int      `json:"warnings"`
	Infos       int      `json:"infos"`
	Codes       []string `json:"codes,omitempty"`
	WarningFree bool     `json:"warning_free"`
}

// NumVertexStates counts the vertex-parallel kernels of the program (the
// paper's "vertex-centric kernels").
func (p *Program) NumVertexStates() int {
	n := 0
	for _, c := range p.Nodes {
		if c.Vertex != nil {
			n++
		}
	}
	return n
}

// Validate checks CFG, slot and context invariants, returning the first
// violation. Every slot an expression or statement names must be
// declared, and every statement and reference must be legal where it
// appears (master block, vertex body, or receive loop), so a validated
// program compiles without indexing outside its declarations.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Nodes) {
		return fmt.Errorf("machine: entry %d out of range", p.Entry)
	}
	if err := p.validateDecls(); err != nil {
		return fmt.Errorf("machine: %v", err)
	}
	inRange := func(t int) bool { return t >= 0 && t < len(p.Nodes) }
	for i, n := range p.Nodes {
		switch {
		case n.Master == nil && n.Vertex == nil:
			return fmt.Errorf("machine: node %d is empty", i)
		case n.Master != nil && n.Vertex != nil:
			return fmt.Errorf("machine: node %d is both master and vertex", i)
		case n.Master != nil:
			t := n.Master.Term
			switch t.Kind {
			case TGoto:
				if !inRange(t.Then) {
					return fmt.Errorf("machine: node %d goto target %d out of range", i, t.Then)
				}
			case TCond:
				if !inRange(t.Then) || !inRange(t.Else) {
					return fmt.Errorf("machine: node %d cond targets (%d,%d) out of range", i, t.Then, t.Else)
				}
				if t.Cond == nil {
					return fmt.Errorf("machine: node %d cond terminator without condition", i)
				}
				if err := p.validateExpr(t.Cond, exprCtx{msgType: -1}); err != nil {
					return fmt.Errorf("machine: master block %d condition: %v", i, err)
				}
			case THalt:
			default:
				return fmt.Errorf("machine: node %d has unknown terminator %d", i, t.Kind)
			}
			if err := p.validateMasterStmts(n.Master.Stmts); err != nil {
				return fmt.Errorf("machine: master block %d: %v", i, err)
			}
		case n.Vertex != nil:
			if !inRange(n.Vertex.Next) {
				return fmt.Errorf("machine: vertex state %d next %d out of range", i, n.Vertex.Next)
			}
			for _, s := range n.Vertex.ReadScalars {
				if s < 0 || s >= len(p.Scalars) {
					return fmt.Errorf("machine: vertex state %d reads bad scalar %d", i, s)
				}
			}
			for _, k := range n.Vertex.Locals {
				if !validKind(k) {
					return fmt.Errorf("machine: vertex state %d has a local of unknown kind %d", i, k)
				}
			}
			if err := p.validateStmts(n.Vertex.Body, exprCtx{vs: n.Vertex, msgType: -1}); err != nil {
				return fmt.Errorf("machine: vertex state %d: %v", i, err)
			}
		}
	}
	return nil
}

func validKind(k ir.Kind) bool { return k <= ir.KNode }

// checkSlot reports a reference to slot i of a table with n entries
// that has no such slot.
func checkSlot(what string, i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("bad %s slot %d", what, i)
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// validateDecls checks the kinds of every declaration and that each
// message type fits a pregel.Msg.
func (p *Program) validateDecls() error {
	var kinds []ir.Kind
	for _, d := range p.Scalars {
		kinds = append(kinds, d.Kind)
	}
	for _, d := range p.Props {
		kinds = append(kinds, d.Kind)
	}
	for _, d := range p.Aggs {
		kinds = append(kinds, d.Kind)
	}
	for i, m := range p.Msgs {
		if len(m.Fields) > pregel.MaxPayloadSlots {
			return fmt.Errorf("message type %d has %d fields, at most %d fit a message", i, len(m.Fields), pregel.MaxPayloadSlots)
		}
		kinds = append(kinds, m.Fields...)
	}
	if p.HasReturn {
		kinds = append(kinds, p.ReturnKind)
	}
	for _, k := range kinds {
		if !validKind(k) {
			return fmt.Errorf("declaration of unknown kind %d", k)
		}
	}
	return nil
}

// exprCtx is where code runs: master code (vs == nil) or the body of
// vertex state vs, inside a receive loop over message type msgType (-1
// outside one).
type exprCtx struct {
	vs      *VertexState
	msgType int
}

func (p *Program) validateMasterStmts(ss []ir.Stmt) error {
	master := exprCtx{msgType: -1}
	for _, s := range ss {
		var err error
		switch s := s.(type) {
		case ir.SetScalar:
			err = firstErr(checkSlot("scalar", s.Slot, len(p.Scalars)), p.validateExpr(s.RHS, master))
		case ir.FoldAgg:
			err = firstErr(checkSlot("scalar", s.Scalar, len(p.Scalars)), checkSlot("agg", s.Agg, len(p.Aggs)))
		case ir.If:
			err = firstErr(p.validateExpr(s.Cond, master), p.validateMasterStmts(s.Then), p.validateMasterStmts(s.Else))
		case ir.Return:
			if s.Value != nil {
				err = p.validateExpr(s.Value, master)
			}
		default:
			err = fmt.Errorf("statement %T is not valid in master context", s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateStmts(ss []ir.Stmt, c exprCtx) error {
	for _, s := range ss {
		var err error
		switch s := s.(type) {
		case ir.SetProp:
			err = firstErr(checkSlot("prop", s.Slot, len(p.Props)), p.validateExpr(s.RHS, c))
		case ir.SetLocal:
			err = firstErr(checkSlot("local", s.Slot, len(c.vs.Locals)), p.validateExpr(s.RHS, c))
		case ir.ContribAgg:
			err = firstErr(checkSlot("agg", s.Agg, len(p.Aggs)), p.validateExpr(s.RHS, c))
		case ir.SendToNbrs:
			err = p.validateSend(s.MsgType, s.Payload, c)
			if err == nil && s.EdgeCond != nil {
				err = p.validateExpr(s.EdgeCond, c)
			}
		case ir.SendTo:
			err = firstErr(p.validateSend(s.MsgType, s.Payload, c), p.validateExpr(s.Target, c))
		case ir.SendToInNbrs:
			err = p.validateSend(s.MsgType, s.Payload, c)
		case ir.CollectInNbrs:
			err = checkSlot("message type", s.MsgType, len(p.Msgs))
		case ir.ForMsgs:
			err = checkSlot("message type", s.MsgType, len(p.Msgs))
			if err == nil {
				err = p.validateStmts(s.Body, exprCtx{vs: c.vs, msgType: s.MsgType})
			}
		case ir.If:
			err = firstErr(p.validateExpr(s.Cond, c), p.validateStmts(s.Then, c), p.validateStmts(s.Else, c))
		default:
			err = fmt.Errorf("statement %T is not valid in vertex context", s)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validateSend checks a send's message type and that its payload fits
// the type's declared fields.
func (p *Program) validateSend(mt int, payload []ir.Expr, c exprCtx) error {
	if err := checkSlot("message type", mt, len(p.Msgs)); err != nil {
		return err
	}
	if n := len(p.Msgs[mt].Fields); len(payload) > n {
		return fmt.Errorf("message type %d carries %d fields, payload has %d", mt, n, len(payload))
	}
	for _, e := range payload {
		if err := p.validateExpr(e, c); err != nil {
			return err
		}
	}
	return nil
}

// validateExpr checks that e is complete, that every slot it names is
// declared, and that every reference is legal in context c.
func (p *Program) validateExpr(e ir.Expr, c exprCtx) error {
	master := c.vs == nil
	vertexOnly := func(what string) error {
		if master {
			return fmt.Errorf("%s read in master context", what)
		}
		return nil
	}
	switch e := e.(type) {
	case nil:
		return fmt.Errorf("missing expression")
	case ir.Const:
		if !validKind(e.V.K) {
			return fmt.Errorf("constant of unknown kind %d", e.V.K)
		}
	case ir.ScalarRef:
		return checkSlot("scalar", e.Slot, len(p.Scalars))
	case ir.AggRef:
		if !master {
			return fmt.Errorf("aggregator %d read in vertex context", e.Slot)
		}
		return checkSlot("agg", e.Slot, len(p.Aggs))
	case ir.LocalRef:
		if err := vertexOnly("local"); err != nil {
			return err
		}
		return checkSlot("local", e.Slot, len(c.vs.Locals))
	case ir.PropRef:
		return firstErr(vertexOnly("property"), checkSlot("prop", e.Slot, len(p.Props)))
	case ir.EdgePropRef:
		return firstErr(vertexOnly("edge property"), checkSlot("edge prop", e.Slot, len(p.Props)))
	case ir.CurNode:
		return vertexOnly("current node")
	case ir.MsgField:
		limit := pregel.MaxPayloadSlots
		if c.msgType >= 0 {
			limit = len(p.Msgs[c.msgType].Fields)
		}
		if !validKind(e.K) {
			return fmt.Errorf("message field %d has unknown kind %d", e.Idx, e.K)
		}
		return firstErr(vertexOnly("message field"), checkSlot("message field", e.Idx, limit))
	case ir.Builtin:
		switch e.Op {
		case ir.BNumNodes, ir.BNumEdges, ir.BPickRandom:
		case ir.BDegree, ir.BNodeId:
			return vertexOnly("vertex builtin")
		default:
			return fmt.Errorf("unknown builtin %d", int(e.Op))
		}
	case ir.Binary:
		return firstErr(p.validateExpr(e.L, c), p.validateExpr(e.R, c))
	case ir.Unary:
		return p.validateExpr(e.X, c)
	case ir.Ternary:
		return firstErr(p.validateExpr(e.Cond, c), p.validateExpr(e.Then, c), p.validateExpr(e.Else, c))
	default:
		return fmt.Errorf("unknown expression %T", e)
	}
	return nil
}

// String renders a readable listing of the program (used by the CLI's
// -dump-machine and by debugging tests).
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", p.Name)
	fmt.Fprintf(&b, "  scalars:")
	for i, s := range p.Scalars {
		fmt.Fprintf(&b, " [%d]%s:%s", i, s.Name, s.Kind)
	}
	fmt.Fprintf(&b, "\n  props:")
	for i, pr := range p.Props {
		tag := "node"
		if pr.IsEdge {
			tag = "edge"
		}
		fmt.Fprintf(&b, " [%d]%s:%s(%s)", i, pr.Name, pr.Kind, tag)
	}
	fmt.Fprintf(&b, "\n  aggs:")
	for i, a := range p.Aggs {
		fmt.Fprintf(&b, " [%d]%s:%s %s", i, a.Name, a.Kind, a.Op)
	}
	fmt.Fprintf(&b, "\n  msgs:")
	for i, m := range p.Msgs {
		fmt.Fprintf(&b, " [%d]%s%v", i, m.Name, m.Fields)
	}
	fmt.Fprintf(&b, "\n  entry: node %d\n", p.Entry)
	for i, n := range p.Nodes {
		if n.Master != nil {
			fmt.Fprintf(&b, "  node %d (master):\n", i)
			for _, s := range n.Master.Stmts {
				fmt.Fprintf(&b, "    %s\n", s)
			}
			switch n.Master.Term.Kind {
			case TGoto:
				fmt.Fprintf(&b, "    goto %d\n", n.Master.Term.Then)
			case TCond:
				fmt.Fprintf(&b, "    if %s goto %d else %d\n", n.Master.Term.Cond, n.Master.Term.Then, n.Master.Term.Else)
			case THalt:
				fmt.Fprintf(&b, "    halt\n")
			}
		} else {
			v := n.Vertex
			fmt.Fprintf(&b, "  node %d (vertex %q, next=%d, reads=%v):\n", i, v.Name, v.Next, v.ReadScalars)
			for _, s := range v.Body {
				fmt.Fprintf(&b, "    %s\n", s)
			}
		}
	}
	return b.String()
}
