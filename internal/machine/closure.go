// Closure compilation: vertex-state bodies are compiled once per run
// into trees of Go closures, removing per-vertex interpretive dispatch
// (type switches and interface assertions) from the hot path. The
// GPS-generated Java programs the paper measures are javac-compiled;
// this is our equivalent, keeping the generated-vs-manual comparison of
// Figure 6 about the programming model rather than interpreter overhead.
package machine

import (
	"fmt"
	"math"

	"gmpregel/internal/gm/ast"
	"gmpregel/internal/graph"
	"gmpregel/internal/ir"
	"gmpregel/internal/pregel"
)

type exprFn func(env *vertexEnv) ir.Value
type stmtFn func(env *vertexEnv)

// compileState compiles one vertex state's body.
func (ex *exec) compileState(vs *VertexState) []stmtFn {
	out := make([]stmtFn, 0, len(vs.Body))
	for _, s := range vs.Body {
		out = append(out, ex.compileStmt(s, vs))
	}
	return out
}

func (ex *exec) compileStmts(ss []ir.Stmt, vs *VertexState) []stmtFn {
	out := make([]stmtFn, 0, len(ss))
	for _, s := range ss {
		out = append(out, ex.compileStmt(s, vs))
	}
	return out
}

func runAll(fns []stmtFn, env *vertexEnv) {
	for _, f := range fns {
		f(env)
	}
}

func (ex *exec) compileStmt(s ir.Stmt, vs *VertexState) stmtFn {
	switch s := s.(type) {
	case ir.SetLocal:
		slot := s.Slot
		kind := vs.Locals[slot]
		rhs := ex.compileExpr(s.RHS)
		return func(env *vertexEnv) {
			env.locals[slot] = rhs(env).Convert(kind)
		}
	case ir.SetProp:
		return ex.compileSetProp(s)
	case ir.ContribAgg:
		agg := s.Agg
		rhs := ex.compileExpr(s.RHS)
		switch ex.p.Aggs[s.Agg].Kind {
		case ir.KFloat:
			return func(env *vertexEnv) { env.vc.AggFloat(agg, rhs(env).AsFloat()) }
		case ir.KBool:
			return func(env *vertexEnv) { env.vc.AggBool(agg, rhs(env).AsBool()) }
		default:
			return func(env *vertexEnv) { env.vc.AggInt(agg, rhs(env).AsInt()) }
		}
	case ir.SendToNbrs:
		return ex.compileSendToNbrs(s)
	case ir.SendTo:
		target := ex.compileExpr(s.Target)
		build := ex.compileMsgBuilder(s.MsgType, s.Payload)
		return func(env *vertexEnv) {
			tgt := target(env).AsNode()
			if tgt == graph.NilNode {
				return
			}
			env.vc.Send(tgt, build(env))
		}
	case ir.SendToInNbrs:
		build := ex.compileMsgBuilder(s.MsgType, s.Payload)
		return func(env *vertexEnv) {
			for _, src := range ex.inNbrs[env.vc.ID()] {
				env.vc.Send(src, build(env))
			}
		}
	case ir.CollectInNbrs:
		mt := uint8(s.MsgType)
		return func(env *vertexEnv) {
			v := env.vc.ID()
			msgs := env.vc.Messages()
			for i := range msgs.Len() {
				if msgs.Type(i) == mt {
					ex.inNbrs[v] = append(ex.inNbrs[v], msgs.Node(i, 0))
				}
			}
		}
	case ir.ForMsgs:
		mt := uint8(s.MsgType)
		body := ex.compileStmts(s.Body, vs)
		return func(env *vertexEnv) {
			env.msgs = env.vc.Messages()
			for i := range env.msgs.Len() {
				if env.msgs.Type(i) != mt {
					continue
				}
				env.msgIdx = i
				runAll(body, env)
			}
			env.msgIdx = -1
		}
	case ir.If:
		cond := ex.compileExpr(s.Cond)
		thenFns := ex.compileStmts(s.Then, vs)
		elseFns := ex.compileStmts(s.Else, vs)
		return func(env *vertexEnv) {
			if cond(env).AsBool() {
				runAll(thenFns, env)
			} else {
				runAll(elseFns, env)
			}
		}
	default:
		panic(fmt.Sprintf("machine: statement %T is not valid in vertex context", s))
	}
}

// compileSetProp specializes property updates by storage type and
// reduction operator — the hottest statement kind.
func (ex *exec) compileSetProp(s ir.SetProp) stmtFn {
	rhs := ex.compileExpr(s.RHS)
	col := &ex.cols[s.Slot]
	kind := ex.p.Props[s.Slot].Kind
	if col.f != nil {
		f := col.f
		switch s.Op {
		case ast.OpSet:
			return func(env *vertexEnv) { f[env.vc.ID()] = rhs(env).AsFloat() }
		case ast.OpAdd:
			return func(env *vertexEnv) { f[env.vc.ID()] += rhs(env).AsFloat() }
		case ast.OpSub:
			return func(env *vertexEnv) { f[env.vc.ID()] -= rhs(env).AsFloat() }
		case ast.OpMul:
			return func(env *vertexEnv) { f[env.vc.ID()] *= rhs(env).AsFloat() }
		case ast.OpMin:
			return func(env *vertexEnv) {
				if v := rhs(env).AsFloat(); v < f[env.vc.ID()] {
					f[env.vc.ID()] = v
				}
			}
		case ast.OpMax:
			return func(env *vertexEnv) {
				if v := rhs(env).AsFloat(); v > f[env.vc.ID()] {
					f[env.vc.ID()] = v
				}
			}
		}
		op := s.Op
		return func(env *vertexEnv) {
			old := ir.Float(f[env.vc.ID()])
			f[env.vc.ID()] = ir.Reduce(op, old, rhs(env)).F
		}
	}
	iCol := col.i
	switch s.Op {
	case ast.OpSet:
		if kind == ir.KNode || kind == ir.KInt {
			return func(env *vertexEnv) { iCol[env.vc.ID()] = rhs(env).AsInt() }
		}
		// Bool: normalize to 0/1.
		return func(env *vertexEnv) {
			if rhs(env).AsBool() {
				iCol[env.vc.ID()] = 1
			} else {
				iCol[env.vc.ID()] = 0
			}
		}
	case ast.OpAdd:
		return func(env *vertexEnv) { iCol[env.vc.ID()] += rhs(env).AsInt() }
	case ast.OpSub:
		return func(env *vertexEnv) { iCol[env.vc.ID()] -= rhs(env).AsInt() }
	case ast.OpMin:
		return func(env *vertexEnv) {
			if v := rhs(env).AsInt(); v < iCol[env.vc.ID()] {
				iCol[env.vc.ID()] = v
			}
		}
	case ast.OpMax:
		return func(env *vertexEnv) {
			if v := rhs(env).AsInt(); v > iCol[env.vc.ID()] {
				iCol[env.vc.ID()] = v
			}
		}
	}
	op := s.Op
	k := kind
	return func(env *vertexEnv) {
		old := ir.Value{K: k, I: iCol[env.vc.ID()]}
		iCol[env.vc.ID()] = ir.Reduce(op, old, rhs(env)).I
	}
}

func (ex *exec) compileSendToNbrs(s ir.SendToNbrs) stmtFn {
	var cond exprFn
	if s.EdgeCond != nil {
		cond = ex.compileExpr(s.EdgeCond)
	}
	fields := ex.p.Msgs[s.MsgType].Fields
	payload := make([]exprFn, len(s.Payload))
	for i, p := range s.Payload {
		payload[i] = ex.compileExpr(p)
	}
	mt := uint8(s.MsgType)

	// When neither the payload nor the condition reads edge properties,
	// the message is identical on every edge: build it once per vertex,
	// exactly as hand-written code does.
	perEdge := exprsUseEdgeProps(append(append([]ir.Expr(nil), s.Payload...), s.EdgeCond))
	if !perEdge {
		return func(env *vertexEnv) {
			if cond != nil && !cond(env).AsBool() {
				return
			}
			var m pregel.Msg
			m.Type = mt
			for i, pf := range payload {
				setField(&m, i, fields[i], pf(env))
			}
			env.vc.SendToAllNbrs(m)
		}
	}
	return func(env *vertexEnv) {
		lo, hi := env.vc.OutEdgeRange()
		nbrs := env.vc.OutNbrs()
		for e := lo; e < hi; e++ {
			env.curEdge = e
			if cond != nil && !cond(env).AsBool() {
				continue
			}
			var m pregel.Msg
			m.Type = mt
			for i, pf := range payload {
				setField(&m, i, fields[i], pf(env))
			}
			env.vc.Send(nbrs[e-lo], m)
		}
		env.curEdge = -1
	}
}

// exprsUseEdgeProps reports whether any expression reads an edge
// property.
func exprsUseEdgeProps(es []ir.Expr) bool {
	found := false
	for _, e := range es {
		ir.WalkExprs(e, func(x ir.Expr) {
			if _, ok := x.(ir.EdgePropRef); ok {
				found = true
			}
		})
	}
	return found
}

func (ex *exec) compileMsgBuilder(msgType int, payload []ir.Expr) func(env *vertexEnv) pregel.Msg {
	fields := ex.p.Msgs[msgType].Fields
	fns := make([]exprFn, len(payload))
	for i, p := range payload {
		fns[i] = ex.compileExpr(p)
	}
	mt := uint8(msgType)
	return func(env *vertexEnv) pregel.Msg {
		var m pregel.Msg
		m.Type = mt
		for i, pf := range fns {
			setField(&m, i, fields[i], pf(env))
		}
		return m
	}
}

func setField(m *pregel.Msg, i int, k ir.Kind, v ir.Value) {
	switch k {
	case ir.KFloat:
		m.SetFloat(i, v.AsFloat())
	case ir.KBool:
		m.SetBool(i, v.AsBool())
	case ir.KNode:
		m.SetNode(i, v.AsNode())
	default:
		m.SetInt(i, v.AsInt())
	}
}

func (ex *exec) compileExpr(e ir.Expr) exprFn {
	switch e := e.(type) {
	case ir.Const:
		v := e.V
		return func(*vertexEnv) ir.Value { return v }
	case ir.ScalarRef:
		slot := e.Slot
		switch ex.p.Scalars[slot].Kind {
		case ir.KFloat:
			return func(env *vertexEnv) ir.Value { return ir.Float(env.vc.GlobalFloat(1 + slot)) }
		case ir.KBool:
			return func(env *vertexEnv) ir.Value { return ir.Bool(env.vc.GlobalBool(1 + slot)) }
		case ir.KNode:
			return func(env *vertexEnv) ir.Value { return ir.Node(env.vc.GlobalNode(1 + slot)) }
		default:
			return func(env *vertexEnv) ir.Value { return ir.Int(env.vc.GlobalInt(1 + slot)) }
		}
	case ir.LocalRef:
		slot := e.Slot
		return func(env *vertexEnv) ir.Value { return env.locals[slot] }
	case ir.PropRef:
		col := &ex.cols[e.Slot]
		if col.f != nil {
			f := col.f
			return func(env *vertexEnv) ir.Value { return ir.Float(f[env.vc.ID()]) }
		}
		iCol := col.i
		k := ex.p.Props[e.Slot].Kind
		return func(env *vertexEnv) ir.Value { return ir.Value{K: k, I: iCol[env.vc.ID()]} }
	case ir.EdgePropRef:
		col := &ex.cols[e.Slot]
		if col.f != nil {
			f := col.f
			return func(env *vertexEnv) ir.Value { return ir.Float(f[env.curEdge]) }
		}
		iCol := col.i
		k := ex.p.Props[e.Slot].Kind
		return func(env *vertexEnv) ir.Value { return ir.Value{K: k, I: iCol[env.curEdge]} }
	case ir.CurNode:
		return func(env *vertexEnv) ir.Value { return ir.Node(env.vc.ID()) }
	case ir.MsgField:
		idx := e.Idx
		switch e.K {
		case ir.KFloat:
			return func(env *vertexEnv) ir.Value { return ir.Float(env.msgs.Float(env.msgIdx, idx)) }
		case ir.KBool:
			return func(env *vertexEnv) ir.Value { return ir.Bool(env.msgs.Bool(env.msgIdx, idx)) }
		case ir.KNode:
			return func(env *vertexEnv) ir.Value { return ir.Node(env.msgs.Node(env.msgIdx, idx)) }
		default:
			return func(env *vertexEnv) ir.Value { return ir.Int(env.msgs.Int(env.msgIdx, idx)) }
		}
	case ir.Builtin:
		switch e.Op {
		case ir.BNumNodes:
			return func(env *vertexEnv) ir.Value { return ir.Int(int64(env.vc.NumNodes())) }
		case ir.BNumEdges:
			m := ex.g.NumEdges()
			return func(*vertexEnv) ir.Value { return ir.Int(m) }
		case ir.BDegree:
			return func(env *vertexEnv) ir.Value { return ir.Int(int64(env.vc.OutDegree())) }
		case ir.BPickRandom:
			return func(env *vertexEnv) ir.Value {
				return ir.Node(graph.NodeID(env.vc.Rand().Intn(env.vc.NumNodes())))
			}
		case ir.BNodeId:
			return func(env *vertexEnv) ir.Value { return ir.Int(int64(env.vc.ID())) }
		}
	case ir.Binary:
		return compileBinary(e.Op, ex.compileExpr(e.L), ex.compileExpr(e.R))
	case ir.Unary:
		x := ex.compileExpr(e.X)
		if e.Op == ast.UnNot {
			return func(env *vertexEnv) ir.Value { return ir.Bool(!x(env).AsBool()) }
		}
		return func(env *vertexEnv) ir.Value {
			v := x(env)
			if v.K == ir.KFloat {
				return ir.Float(-v.F)
			}
			return ir.Value{K: v.K, I: -v.I}
		}
	case ir.Ternary:
		cond := ex.compileExpr(e.Cond)
		th := ex.compileExpr(e.Then)
		el := ex.compileExpr(e.Else)
		return func(env *vertexEnv) ir.Value {
			if cond(env).AsBool() {
				return th(env)
			}
			return el(env)
		}
	}
	panic(fmt.Sprintf("machine: cannot compile expression %T", e))
}

func compileBinary(op ast.BinOp, l, r exprFn) exprFn {
	switch op {
	case ast.BinAnd:
		return func(env *vertexEnv) ir.Value {
			if !l(env).AsBool() {
				return ir.Bool(false)
			}
			return ir.Bool(r(env).AsBool())
		}
	case ast.BinOr:
		return func(env *vertexEnv) ir.Value {
			if l(env).AsBool() {
				return ir.Bool(true)
			}
			return ir.Bool(r(env).AsBool())
		}
	case ast.BinEq:
		return func(env *vertexEnv) ir.Value { return ir.Bool(ir.Equal(l(env), r(env))) }
	case ast.BinNeq:
		return func(env *vertexEnv) ir.Value { return ir.Bool(!ir.Equal(l(env), r(env))) }
	case ast.BinLt:
		return func(env *vertexEnv) ir.Value { return ir.Bool(ir.Less(l(env), r(env))) }
	case ast.BinGt:
		return func(env *vertexEnv) ir.Value { return ir.Bool(ir.Less(r(env), l(env))) }
	case ast.BinLe:
		return func(env *vertexEnv) ir.Value { return ir.Bool(!ir.Less(r(env), l(env))) }
	case ast.BinGe:
		return func(env *vertexEnv) ir.Value { return ir.Bool(!ir.Less(l(env), r(env))) }
	}
	return func(env *vertexEnv) ir.Value {
		a := l(env)
		b := r(env)
		if a.K == ir.KFloat || b.K == ir.KFloat {
			x, y := a.AsFloat(), b.AsFloat()
			switch op {
			case ast.BinAdd:
				return ir.Float(x + y)
			case ast.BinSub:
				return ir.Float(x - y)
			case ast.BinMul:
				return ir.Float(x * y)
			case ast.BinDiv:
				return ir.Float(x / y)
			}
			return ir.Float(math.NaN())
		}
		x, y := a.AsInt(), b.AsInt()
		switch op {
		case ast.BinAdd:
			return ir.Int(x + y)
		case ast.BinSub:
			return ir.Int(x - y)
		case ast.BinMul:
			return ir.Int(x * y)
		case ast.BinDiv:
			if y == 0 {
				return ir.Int(0)
			}
			return ir.Int(x / y)
		case ast.BinMod:
			if y == 0 {
				return ir.Int(0)
			}
			return ir.Int(x % y)
		}
		return ir.Int(0)
	}
}
