package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ChanMisuse tracks channel lifecycle states — nil, open, closed — with a
// forward dataflow per function body and reports the misuses that panic
// or hang at runtime:
//
//   - send on a channel that is definitely closed (panics);
//   - close of a channel that is definitely closed (panics);
//   - send or receive on a definitely nil channel outside a select
//     (blocks forever);
//   - a select receive, inside a loop, from a definitely closed channel
//     without the comma-ok form (the case fires instantly with zero
//     values every iteration — a busy spin);
//   - close of a bare channel-typed parameter: the function does not own
//     the channel, and closing a channel you did not create is how
//     send-after-close panics are manufactured at a distance. (Closing a
//     receive-only channel is already a compile error, so that variant of
//     non-ownership needs no analyzer.)
//
// Channels are named by identifier/selector path ("ch", "s.stopCh").
// The analysis is optimistic about calls: passing a channel to another
// function leaves its state unchanged, and a deferred close is treated
// as running at return (it cannot make an earlier send unsafe). Assigning
// anything but make/nil sets the state to unknown, and unknown states
// never report. Escape with `// chan: <reason>` on the offending
// statement when the pattern is deliberate.
func ChanMisuse(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "chan-misuse",
		Doc:  "send-after-close, double-close, nil-channel ops, close-by-non-owner, closed-select spins",
		Run: func(pass *Pass) {
			for _, file := range pass.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch fn := n.(type) {
					case *ast.FuncDecl:
						if fn.Body != nil {
							pass.checkChanMisuse(fn.Type, fn.Body)
						}
					case *ast.FuncLit:
						if fn.Body != nil {
							pass.checkChanMisuse(fn.Type, fn.Body)
						}
					}
					return true
				})
			}
		},
	}
}

// chanState is the per-channel abstract state.
type chanState int8

const (
	chanUnknown chanState = iota // anything — calls, params, fields
	chanNil                      // definitely nil
	chanOpen                     // definitely open (made here, not closed)
	chanClosed                   // definitely closed
)

// chanFact maps channel paths to states. nil is the dataflow bottom.
// Absent keys are chanUnknown.
type chanFact struct {
	state map[string]chanState
}

func (f *chanFact) clone() *chanFact {
	c := &chanFact{state: make(map[string]chanState, len(f.state))}
	for k, v := range f.state {
		c.state[k] = v
	}
	return c
}

type chanLattice struct{}

func (chanLattice) Bottom() *chanFact { return nil }

func (chanLattice) Join(a, b *chanFact) *chanFact {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	j := &chanFact{state: map[string]chanState{}}
	for k, av := range a.state {
		if b.state[k] == av {
			j.state[k] = av
		}
		// disagreement (including absence) decays to chanUnknown: dropped
	}
	return j
}

func (chanLattice) Equal(a, b *chanFact) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.state) != len(b.state) {
		return false
	}
	for k, v := range a.state {
		if b.state[k] != v {
			return false
		}
	}
	return true
}

// chanOp is one channel operation found in a block.
type chanOp struct {
	kind chanOpKind
	key  string
	to   chanState // opAssign: the new state
	pos  token.Pos
	sel  bool // op sits in a select communication clause
	ok   bool // receive uses the comma-ok form
	loop bool // op sits inside a for/range loop
}

type chanOpKind int8

const (
	opSend chanOpKind = iota
	opRecv
	opClose
	opAssign
)

// checkChanMisuse solves the channel-state dataflow over one function body
// and reports on the fixed point.
func (pass *Pass) checkChanMisuse(ftype *ast.FuncType, body *ast.BlockStmt) {
	ctx := pass.newChanContext(ftype, body)
	if !ctx.any {
		return
	}
	g := NewCFG(body)
	ops := map[*Block][]chanOp{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ctx.chanOpsIn(n, func(op chanOp) {
				ops[b] = append(ops[b], op)
			})
		}
	}
	lat := chanLattice{}
	entry := &chanFact{state: map[string]chanState{}}
	transfer := func(b *Block, in *chanFact) *chanFact {
		if in == nil {
			return nil
		}
		out := in.clone()
		for _, op := range ops[b] {
			ctx.applyChanOp(out, op, nil)
		}
		return out
	}
	in, _ := ForwardSolve(g, lat, entry, transfer)

	// Report pass: replay reachable blocks against their fixed-point
	// in-facts. Select communications appear in both the select head block
	// and their case block, so findings dedupe by position.
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, format string, args ...any) {
		if reported[pos] || pass.Pkg.commentedWith(pos, "chan:") {
			return
		}
		reported[pos] = true
		pass.Reportf(pos, format, args...)
	}
	for _, b := range g.Blocks {
		fact := in[b]
		if fact == nil {
			continue
		}
		cur := fact.clone()
		for _, n := range b.Nodes {
			ctx.chanOpsIn(n, func(op chanOp) {
				ctx.applyChanOp(cur, op, report)
			})
		}
	}
}

// applyChanOp mutates fact by one operation; report (when non-nil) fires
// for misuses.
func (ctx *chanContext) applyChanOp(fact *chanFact, op chanOp, report func(pos token.Pos, format string, args ...any)) {
	st := fact.state[op.key]
	switch op.kind {
	case opAssign:
		fact.state[op.key] = op.to
	case opClose:
		if report != nil {
			if st == chanClosed {
				report(op.pos, "close of %s, which is already closed on this path (panics)", op.key)
			} else if ctx.params[op.key] {
				report(op.pos, "close of parameter %s: this function does not own the channel; close where it was made, or justify with // chan:", op.key)
			}
		}
		fact.state[op.key] = chanClosed
	case opSend:
		if report != nil {
			switch st {
			case chanClosed:
				report(op.pos, "send on %s after it is closed on this path (panics)", op.key)
			case chanNil:
				if !op.sel {
					report(op.pos, "send on %s, which is nil on this path (blocks forever)", op.key)
				}
			}
		}
	case opRecv:
		if report != nil {
			switch st {
			case chanNil:
				if !op.sel {
					report(op.pos, "receive from %s, which is nil on this path (blocks forever)", op.key)
				}
			case chanClosed:
				if op.sel && op.loop && !op.ok {
					report(op.pos, "select receive from %s, which is closed on this path: the case fires every iteration with zero values (busy spin); use the comma-ok form or remove the case", op.key)
				}
			}
		}
	}
}

// chanContext caches the per-body classification needed to decode ops:
// channel-typed parameters, select communication spans, comma-ok receive
// expressions, and loop spans.
type chanContext struct {
	pass    *Pass
	params  map[string]bool // bare channel-typed parameter names
	inSel   []posSpan       // select communication clause spans
	okRecvs map[*ast.UnaryExpr]bool
	loops   []posSpan
	any     bool // body touches any channel at all
}

type posSpan struct{ lo, hi token.Pos }

func (s posSpan) contains(p token.Pos) bool { return s.lo <= p && p < s.hi }

func inSpans(spans []posSpan, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

func (pass *Pass) newChanContext(ftype *ast.FuncType, body *ast.BlockStmt) *chanContext {
	ctx := &chanContext{pass: pass, params: map[string]bool{}, okRecvs: map[*ast.UnaryExpr]bool{}}
	if ftype != nil && ftype.Params != nil {
		for _, field := range ftype.Params.List {
			if _, ok := field.Type.(*ast.ChanType); !ok {
				continue
			}
			for _, name := range field.Names {
				ctx.params[name.Name] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its body is checked on its own
		case *ast.ForStmt:
			ctx.loops = append(ctx.loops, posSpan{x.Pos(), x.End()})
		case *ast.RangeStmt:
			ctx.loops = append(ctx.loops, posSpan{x.Pos(), x.End()})
		case *ast.CommClause:
			if x.Comm != nil {
				ctx.inSel = append(ctx.inSel, posSpan{x.Comm.Pos(), x.Comm.End()})
			}
		case *ast.AssignStmt:
			// v, ok := <-ch — the comma-ok receive form.
			if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
				if ue, ok := x.Rhs[0].(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
					ctx.okRecvs[ue] = true
				}
			}
		case *ast.SendStmt, *ast.UnaryExpr, *ast.CallExpr, *ast.ChanType:
			switch y := n.(type) {
			case *ast.SendStmt:
				ctx.any = true
			case *ast.UnaryExpr:
				if y.Op == token.ARROW {
					ctx.any = true
				}
			case *ast.CallExpr:
				if id, ok := y.Fun.(*ast.Ident); ok && id.Name == "close" {
					ctx.any = true
				}
			case *ast.ChanType:
				ctx.any = true
			}
		}
		return true
	})
	return ctx
}

// chanKey renders e as a channel path when e has channel type; "" otherwise.
func (ctx *chanContext) chanKey(e ast.Expr) string {
	t := ctx.pass.Pkg.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return ""
	}
	return exprName(e)
}

// chanOpsIn scans one block node for channel operations, without
// descending into function literals (they execute on their own schedule)
// or defers (a deferred close runs at return and cannot precede this
// body's sends).
func (ctx *chanContext) chanOpsIn(n ast.Node, emit func(chanOp)) {
	ast.Inspect(n, func(child ast.Node) bool {
		switch x := child.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if key := ctx.chanKey(x.Chan); key != "" {
				emit(chanOp{kind: opSend, key: key, pos: x.Pos(),
					sel: inSpans(ctx.inSel, x.Pos()), loop: inSpans(ctx.loops, x.Pos())})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if key := ctx.chanKey(x.X); key != "" {
					emit(chanOp{kind: opRecv, key: key, pos: x.Pos(),
						sel: inSpans(ctx.inSel, x.Pos()), ok: ctx.okRecvs[x],
						loop: inSpans(ctx.loops, x.Pos())})
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if key := ctx.chanKey(x.Args[0]); key != "" {
					emit(chanOp{kind: opClose, key: key, pos: x.Pos()})
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					key := ctx.chanKey(lhs)
					if key == "" {
						continue
					}
					emit(chanOp{kind: opAssign, key: key, to: ctx.rhsChanState(x.Rhs[i]), pos: x.Pos()})
				}
			} else {
				// multi-value RHS (call, comma-ok): states go unknown
				for _, lhs := range x.Lhs {
					if key := ctx.chanKey(lhs); key != "" {
						emit(chanOp{kind: opAssign, key: key, to: chanUnknown, pos: x.Pos()})
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) > 0 {
						continue
					}
					// var ch chan T — the zero value is nil.
					for _, name := range vs.Names {
						if key := ctx.chanKey(name); key != "" {
							emit(chanOp{kind: opAssign, key: key, to: chanNil, pos: name.Pos()})
						}
					}
				}
			}
		}
		return true
	})
}

// rhsChanState classifies the value assigned into a channel variable.
func (ctx *chanContext) rhsChanState(e ast.Expr) chanState {
	switch x := e.(type) {
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" {
			return chanOpen
		}
	case *ast.Ident:
		if x.Name == "nil" {
			return chanNil
		}
	}
	return chanUnknown
}
