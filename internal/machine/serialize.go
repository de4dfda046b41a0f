package machine

import (
	"encoding/json"
	"fmt"
	"math"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/ir"
)

// Program serialization: a compiled Pregel program can be saved as a
// JSON artifact and reloaded later (gmpc -emit / LoadArtifact), so
// compilation and execution can happen in different processes.
// Statements and expressions serialize as tagged envelopes.

type jsonProgram struct {
	Name       string           `json:"name"`
	Scalars    []ScalarDecl     `json:"scalars,omitempty"`
	Props      []PropDecl       `json:"props,omitempty"`
	Aggs       []jsonAgg        `json:"aggs,omitempty"`
	Msgs       []MsgSchema      `json:"msgs,omitempty"`
	Nodes      []jsonNode       `json:"nodes"`
	Entry      int              `json:"entry"`
	Loops      []LoopInfo       `json:"loops,omitempty"`
	HasReturn  bool             `json:"has_return,omitempty"`
	ReturnKind ir.Kind          `json:"return_kind,omitempty"`
	Analysis   *AnalysisSummary `json:"analysis,omitempty"`
}

type jsonAgg struct {
	Name string       `json:"name"`
	Kind ir.Kind      `json:"kind"`
	Op   ast.AssignOp `json:"op"`
}

type jsonNode struct {
	Master *jsonMaster `json:"master,omitempty"`
	Vertex *jsonVertex `json:"vertex,omitempty"`
}

type jsonMaster struct {
	Stmts []jsonStmt `json:"stmts,omitempty"`
	Kind  TermKind   `json:"term"`
	Cond  *jsonExpr  `json:"cond,omitempty"`
	Then  int        `json:"then,omitempty"`
	Else  int        `json:"else,omitempty"`
}

type jsonVertex struct {
	Name        string     `json:"name"`
	Body        []jsonStmt `json:"body,omitempty"`
	Next        int        `json:"next"`
	ReadScalars []int      `json:"read_scalars,omitempty"`
	Locals      []ir.Kind  `json:"locals,omitempty"`
	LocalNames  []string   `json:"local_names,omitempty"`
}

type jsonStmt struct {
	Kind    string     `json:"k"`
	Slot    int        `json:"slot,omitempty"`
	Name    string     `json:"name,omitempty"`
	Op      int        `json:"op,omitempty"`
	Agg     int        `json:"agg,omitempty"`
	Scalar  int        `json:"scalar,omitempty"`
	MsgType int        `json:"mt,omitempty"`
	RHS     *jsonExpr  `json:"rhs,omitempty"`
	Target  *jsonExpr  `json:"target,omitempty"`
	Cond    *jsonExpr  `json:"cond,omitempty"`
	Payload []jsonExpr `json:"payload,omitempty"`
	Body    []jsonStmt `json:"body,omitempty"`
	Then    []jsonStmt `json:"then,omitempty"`
	Else    []jsonStmt `json:"else,omitempty"`
	Extra   string     `json:"extra,omitempty"` // second name slot
}

type jsonExpr struct {
	Kind string    `json:"k"`
	I    int64     `json:"i,omitempty"`
	F    float64   `json:"f,omitempty"`
	VK   ir.Kind   `json:"vk,omitempty"`
	Slot int       `json:"slot,omitempty"`
	Name string    `json:"name,omitempty"`
	Op   int       `json:"op,omitempty"`
	L    *jsonExpr `json:"l,omitempty"`
	R    *jsonExpr `json:"r,omitempty"`
	C    *jsonExpr `json:"c,omitempty"`
}

// EncodeProgram serializes p as a JSON artifact.
func EncodeProgram(p *Program) ([]byte, error) {
	jp := jsonProgram{
		Name: p.Name, Scalars: p.Scalars, Props: p.Props, Msgs: p.Msgs,
		Entry: p.Entry, Loops: p.Loops, HasReturn: p.HasReturn, ReturnKind: p.ReturnKind,
		Analysis: p.Analysis,
	}
	for _, a := range p.Aggs {
		jp.Aggs = append(jp.Aggs, jsonAgg{Name: a.Name, Kind: a.Kind, Op: a.Op})
	}
	for _, n := range p.Nodes {
		var jn jsonNode
		if n.Master != nil {
			jm := &jsonMaster{Kind: n.Master.Term.Kind, Then: n.Master.Term.Then, Else: n.Master.Term.Else}
			if n.Master.Term.Cond != nil {
				jm.Cond = encodeExpr(n.Master.Term.Cond)
			}
			jm.Stmts = encodeStmts(n.Master.Stmts)
			jn.Master = jm
		}
		if n.Vertex != nil {
			jn.Vertex = &jsonVertex{
				Name: n.Vertex.Name, Body: encodeStmts(n.Vertex.Body), Next: n.Vertex.Next,
				ReadScalars: n.Vertex.ReadScalars, Locals: n.Vertex.Locals, LocalNames: n.Vertex.LocalNames,
			}
		}
		jp.Nodes = append(jp.Nodes, jn)
	}
	return json.MarshalIndent(jp, "", " ")
}

// DecodeProgram reloads a serialized artifact and validates it.
func DecodeProgram(data []byte) (*Program, error) {
	var jp jsonProgram
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("machine: decoding artifact: %w", err)
	}
	p := &Program{
		Name: jp.Name, Scalars: jp.Scalars, Props: jp.Props, Msgs: jp.Msgs,
		Entry: jp.Entry, Loops: jp.Loops, HasReturn: jp.HasReturn, ReturnKind: jp.ReturnKind,
		Analysis: jp.Analysis,
	}
	for _, a := range jp.Aggs {
		p.Aggs = append(p.Aggs, AggDecl{Name: a.Name, Kind: a.Kind, Op: a.Op})
	}
	for i, jn := range jp.Nodes {
		var n CFGNode
		if jn.Master != nil {
			mb := &MasterBlock{Term: Term{Kind: jn.Master.Kind, Then: jn.Master.Then, Else: jn.Master.Else}}
			if jn.Master.Cond != nil {
				e, err := decodeExpr(jn.Master.Cond)
				if err != nil {
					return nil, fmt.Errorf("machine: node %d: %w", i, err)
				}
				mb.Term.Cond = e
			}
			ss, err := decodeStmts(jn.Master.Stmts)
			if err != nil {
				return nil, fmt.Errorf("machine: node %d: %w", i, err)
			}
			mb.Stmts = ss
			n.Master = mb
		}
		if jn.Vertex != nil {
			body, err := decodeStmts(jn.Vertex.Body)
			if err != nil {
				return nil, fmt.Errorf("machine: node %d: %w", i, err)
			}
			n.Vertex = &VertexState{
				Name: jn.Vertex.Name, Body: body, Next: jn.Vertex.Next,
				ReadScalars: jn.Vertex.ReadScalars, Locals: jn.Vertex.Locals, LocalNames: jn.Vertex.LocalNames,
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("machine: artifact invalid: %w", err)
	}
	return p, nil
}

func encodeStmts(ss []ir.Stmt) []jsonStmt {
	out := make([]jsonStmt, 0, len(ss))
	for _, s := range ss {
		out = append(out, encodeStmt(s))
	}
	return out
}

func encodeStmt(s ir.Stmt) jsonStmt {
	switch s := s.(type) {
	case ir.SetScalar:
		return jsonStmt{Kind: "setScalar", Slot: s.Slot, Name: s.Name, Op: int(s.Op), RHS: encodeExpr(s.RHS)}
	case ir.FoldAgg:
		return jsonStmt{Kind: "foldAgg", Scalar: s.Scalar, Name: s.ScalarName, Agg: s.Agg, Extra: s.AggName, Op: int(s.Op)}
	case ir.SetLocal:
		return jsonStmt{Kind: "setLocal", Slot: s.Slot, Name: s.Name, RHS: encodeExpr(s.RHS)}
	case ir.SetProp:
		return jsonStmt{Kind: "setProp", Slot: s.Slot, Name: s.Name, Op: int(s.Op), RHS: encodeExpr(s.RHS)}
	case ir.ContribAgg:
		return jsonStmt{Kind: "contribAgg", Agg: s.Agg, Name: s.Name, RHS: encodeExpr(s.RHS)}
	case ir.SendToNbrs:
		js := jsonStmt{Kind: "sendToNbrs", MsgType: s.MsgType, Payload: encodeExprs(s.Payload)}
		if s.EdgeCond != nil {
			js.Cond = encodeExpr(s.EdgeCond)
		}
		return js
	case ir.SendTo:
		return jsonStmt{Kind: "sendTo", MsgType: s.MsgType, Target: encodeExpr(s.Target), Payload: encodeExprs(s.Payload)}
	case ir.SendToInNbrs:
		return jsonStmt{Kind: "sendToInNbrs", MsgType: s.MsgType, Payload: encodeExprs(s.Payload)}
	case ir.CollectInNbrs:
		return jsonStmt{Kind: "collectInNbrs", MsgType: s.MsgType}
	case ir.ForMsgs:
		return jsonStmt{Kind: "forMsgs", MsgType: s.MsgType, Body: encodeStmts(s.Body)}
	case ir.If:
		return jsonStmt{Kind: "if", Cond: encodeExpr(s.Cond), Then: encodeStmts(s.Then), Else: encodeStmts(s.Else)}
	case ir.Return:
		js := jsonStmt{Kind: "return"}
		if s.Value != nil {
			js.RHS = encodeExpr(s.Value)
		}
		return js
	default:
		panic(fmt.Sprintf("machine: cannot encode statement %T", s))
	}
}

func decodeStmts(js []jsonStmt) ([]ir.Stmt, error) {
	out := make([]ir.Stmt, 0, len(js))
	for _, j := range js {
		s, err := decodeStmt(j)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func decodeStmt(j jsonStmt) (ir.Stmt, error) {
	mustExpr := func(e *jsonExpr) (ir.Expr, error) {
		if e == nil {
			return nil, fmt.Errorf("statement %q missing expression", j.Kind)
		}
		return decodeExpr(e)
	}
	switch j.Kind {
	case "setScalar":
		rhs, err := mustExpr(j.RHS)
		if err != nil {
			return nil, err
		}
		return ir.SetScalar{Slot: j.Slot, Name: j.Name, Op: ast.AssignOp(j.Op), RHS: rhs}, nil
	case "foldAgg":
		return ir.FoldAgg{Scalar: j.Scalar, ScalarName: j.Name, Agg: j.Agg, AggName: j.Extra, Op: ast.AssignOp(j.Op)}, nil
	case "setLocal":
		rhs, err := mustExpr(j.RHS)
		if err != nil {
			return nil, err
		}
		return ir.SetLocal{Slot: j.Slot, Name: j.Name, RHS: rhs}, nil
	case "setProp":
		rhs, err := mustExpr(j.RHS)
		if err != nil {
			return nil, err
		}
		return ir.SetProp{Slot: j.Slot, Name: j.Name, Op: ast.AssignOp(j.Op), RHS: rhs}, nil
	case "contribAgg":
		rhs, err := mustExpr(j.RHS)
		if err != nil {
			return nil, err
		}
		return ir.ContribAgg{Agg: j.Agg, Name: j.Name, RHS: rhs}, nil
	case "sendToNbrs":
		payload, err := decodeExprs(j.Payload)
		if err != nil {
			return nil, err
		}
		s := ir.SendToNbrs{MsgType: j.MsgType, Payload: payload}
		if j.Cond != nil {
			c, err := decodeExpr(j.Cond)
			if err != nil {
				return nil, err
			}
			s.EdgeCond = c
		}
		return s, nil
	case "sendTo":
		payload, err := decodeExprs(j.Payload)
		if err != nil {
			return nil, err
		}
		tgt, err := mustExpr(j.Target)
		if err != nil {
			return nil, err
		}
		return ir.SendTo{MsgType: j.MsgType, Target: tgt, Payload: payload}, nil
	case "sendToInNbrs":
		payload, err := decodeExprs(j.Payload)
		if err != nil {
			return nil, err
		}
		return ir.SendToInNbrs{MsgType: j.MsgType, Payload: payload}, nil
	case "collectInNbrs":
		return ir.CollectInNbrs{MsgType: j.MsgType}, nil
	case "forMsgs":
		body, err := decodeStmts(j.Body)
		if err != nil {
			return nil, err
		}
		return ir.ForMsgs{MsgType: j.MsgType, Body: body}, nil
	case "if":
		cond, err := mustExpr(j.Cond)
		if err != nil {
			return nil, err
		}
		then, err := decodeStmts(j.Then)
		if err != nil {
			return nil, err
		}
		els, err := decodeStmts(j.Else)
		if err != nil {
			return nil, err
		}
		return ir.If{Cond: cond, Then: then, Else: els}, nil
	case "return":
		var v ir.Expr
		if j.RHS != nil {
			e, err := decodeExpr(j.RHS)
			if err != nil {
				return nil, err
			}
			v = e
		}
		return ir.Return{Value: v}, nil
	}
	return nil, fmt.Errorf("unknown statement kind %q", j.Kind)
}

func encodeExprs(es []ir.Expr) []jsonExpr {
	out := make([]jsonExpr, 0, len(es))
	for _, e := range es {
		out = append(out, *encodeExpr(e))
	}
	return out
}

func encodeExpr(e ir.Expr) *jsonExpr {
	switch e := e.(type) {
	case ir.Const:
		je := &jsonExpr{Kind: "const", VK: e.V.K, I: e.V.I}
		if e.V.K == ir.KFloat {
			// Preserve exact bits (NaN/Inf safe) through JSON.
			je.I = int64(math.Float64bits(e.V.F))
		}
		return je
	case ir.ScalarRef:
		return &jsonExpr{Kind: "scalar", Slot: e.Slot, Name: e.Name}
	case ir.LocalRef:
		return &jsonExpr{Kind: "local", Slot: e.Slot, Name: e.Name}
	case ir.PropRef:
		return &jsonExpr{Kind: "prop", Slot: e.Slot, Name: e.Name}
	case ir.EdgePropRef:
		return &jsonExpr{Kind: "edgeProp", Slot: e.Slot, Name: e.Name}
	case ir.CurNode:
		return &jsonExpr{Kind: "curNode"}
	case ir.MsgField:
		return &jsonExpr{Kind: "msgField", Slot: e.Idx, VK: e.K}
	case ir.AggRef:
		return &jsonExpr{Kind: "agg", Slot: e.Slot, Name: e.Name}
	case ir.Builtin:
		return &jsonExpr{Kind: "builtin", Op: int(e.Op)}
	case ir.Binary:
		return &jsonExpr{Kind: "binary", Op: int(e.Op), L: encodeExpr(e.L), R: encodeExpr(e.R)}
	case ir.Unary:
		return &jsonExpr{Kind: "unary", Op: int(e.Op), L: encodeExpr(e.X)}
	case ir.Ternary:
		return &jsonExpr{Kind: "ternary", C: encodeExpr(e.Cond), L: encodeExpr(e.Then), R: encodeExpr(e.Else)}
	default:
		panic(fmt.Sprintf("machine: cannot encode expression %T", e))
	}
}

func decodeExprs(js []jsonExpr) ([]ir.Expr, error) {
	out := make([]ir.Expr, 0, len(js))
	for i := range js {
		e, err := decodeExpr(&js[i])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func decodeExpr(j *jsonExpr) (ir.Expr, error) {
	if j == nil {
		return nil, fmt.Errorf("missing expression")
	}
	switch j.Kind {
	case "const":
		v := ir.Value{K: j.VK, I: j.I}
		if j.VK == ir.KFloat {
			v = ir.Float(math.Float64frombits(uint64(j.I)))
		}
		return ir.Const{V: v}, nil
	case "scalar":
		return ir.ScalarRef{Slot: j.Slot, Name: j.Name}, nil
	case "local":
		return ir.LocalRef{Slot: j.Slot, Name: j.Name}, nil
	case "prop":
		return ir.PropRef{Slot: j.Slot, Name: j.Name}, nil
	case "edgeProp":
		return ir.EdgePropRef{Slot: j.Slot, Name: j.Name}, nil
	case "curNode":
		return ir.CurNode{}, nil
	case "msgField":
		return ir.MsgField{Idx: j.Slot, K: j.VK}, nil
	case "agg":
		return ir.AggRef{Slot: j.Slot, Name: j.Name}, nil
	case "builtin":
		return ir.Builtin{Op: ir.BuiltinOp(j.Op)}, nil
	case "binary":
		l, err := decodeExpr(j.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(j.R)
		if err != nil {
			return nil, err
		}
		return ir.Binary{Op: ast.BinOp(j.Op), L: l, R: r}, nil
	case "unary":
		x, err := decodeExpr(j.L)
		if err != nil {
			return nil, err
		}
		return ir.Unary{Op: ast.UnOp(j.Op), X: x}, nil
	case "ternary":
		c, err := decodeExpr(j.C)
		if err != nil {
			return nil, err
		}
		l, err := decodeExpr(j.L)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(j.R)
		if err != nil {
			return nil, err
		}
		return ir.Ternary{Cond: c, Then: l, Else: r}, nil
	}
	return nil, fmt.Errorf("unknown expression kind %q", j.Kind)
}
