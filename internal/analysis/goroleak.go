package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// GoroutineLeak certifies that every go statement in the configured
// packages launches a body that can reach termination on all CFG paths.
// The serving tier spawns goroutines per request (the batch fan-out), per
// subsystem (snapshot and trace flush loops), and per synthesis miss (the
// singleflight runner); one of them looping without a termination signal
// is a leak that -race never sees and production discovers as monotonic
// goroutine-count growth.
//
// The check is interprocedural: from each go statement the analyzer
// resolves the launched function through the call graph (named functions,
// methods, and function literals alike) and walks everything reachable
// from it inside the configured package set. Every while-style loop on
// that cone — a for statement with no post clause, whose trip count is
// data-dependent — must poll a termination signal on every cycle:
//
//   - a cancellation poll in the cancel-poll sense (a context method, a
//     ctx-passing call, a configured poll function, a budget decrement);
//   - a channel operation (send, receive, select communication, or a
//     range over a channel) — closing the channel or sending on it is the
//     module's shutdown convention.
//
// Counted three-clause loops and range loops are exempt (their trip
// counts are bounded). Escapes: `// goroutine: <reason>` on the go
// statement blankets the whole launch; on a loop it covers that loop; an
// existing `// cancel:` justification on a loop is honored too — a loop
// proven bounded for cancel-poll is bounded here for the same reason.
//
// WaitGroup awareness (reusing the wg-balance decoding): a launch whose
// body calls wg.Done on a WaitGroup the launcher Waits on is joined — a
// non-terminating loop there does not merely leak, it hangs the launcher
// at Wait, and the report says so.
func GoroutineLeak(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "goroutine-leak",
		Doc:  "every go statement's body reaches termination on all CFG paths",
		Run: func(pass *Pass) {
			if !stringIn(pass.Pkg.Path, cfg.GoroutinePackages) {
				return
			}
			prog := pass.Program()
			st := prog.goroAnalysis(cfg)
			for _, node := range prog.Nodes {
				if node.Pkg != pass.Pkg {
					continue
				}
				for _, f := range st.findings[node] {
					pass.Reportf(f.pos, "%s", f.msg)
				}
			}
		},
	}
}

// goroFinding is one leak report attributed to the node holding the loop.
type goroFinding struct {
	pos token.Pos
	msg string
}

// goroLaunch is one go statement selected for checking.
type goroLaunch struct {
	node    *FuncNode // the launching function
	stmt    *ast.GoStmt
	targets []*FuncNode // resolved launch targets (literal or named)
	desc    string      // "file.go:123" of the go statement
	joined  bool        // launcher Waits on a WaitGroup the body Dones
}

type goroState struct {
	findings map[*FuncNode][]goroFinding
}

// goroAnalysis runs the whole-program goroutine-leak analysis once per
// Program and caches the result.
func (p *Program) goroAnalysis(cfg *Config) *goroState {
	p.goroOnce.Do(func() {
		st := &goroState{findings: map[*FuncNode][]goroFinding{}}
		launches := p.collectLaunches(cfg)
		// checked tracks nodes already analyzed so one flagged loop is
		// reported once, attributed to the first launch that reaches it.
		checked := map[*FuncNode]bool{}
		for _, l := range launches {
			cone := p.launchCone(l.targets, cfg)
			for _, n := range cone {
				if checked[n] {
					continue
				}
				checked[n] = true
				p.checkGoroNode(cfg, st, n, l)
			}
		}
		p.goro = st
	})
	return p.goro
}

// collectLaunches gathers the go statements of the configured packages in
// program order, resolving each to its launch targets and deciding
// joined-ness. Launches justified with // goroutine: are dropped here.
func (p *Program) collectLaunches(cfg *Config) []goroLaunch {
	var out []goroLaunch
	for _, node := range p.Nodes {
		if node.Body == nil || !stringIn(node.Pkg.Path, cfg.GoroutinePackages) {
			continue
		}
		siteEdges := map[ast.Node][]Edge{}
		for _, e := range node.Edges {
			siteEdges[e.Site] = append(siteEdges[e.Site], e)
		}
		shim := &Pass{Cfg: cfg, Pkg: node.Pkg}
		walkOwn(node, func(n ast.Node) {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return
			}
			if node.Pkg.commentedWith(gs.Pos(), "goroutine:") {
				return
			}
			l := goroLaunch{node: node, stmt: gs, desc: shortSite(node.Pkg, gs.Pos())}
			if lit, okL := gs.Call.Fun.(*ast.FuncLit); okL {
				if ln := p.byLit[lit]; ln != nil {
					l.targets = append(l.targets, ln)
				}
				l.joined = launchJoined(shim, node, gs, lit)
			} else {
				for _, e := range siteEdges[gs.Call] {
					if e.Callee != nil {
						l.targets = append(l.targets, e.Callee)
					}
				}
			}
			if len(l.targets) > 0 {
				out = append(out, l)
			}
		})
	}
	return out
}

// launchCone returns the nodes reachable from the launch targets through
// the call graph, staying inside the configured package set (loops past
// it belong to cancel-poll's domain), in deterministic order.
func (p *Program) launchCone(targets []*FuncNode, cfg *Config) []*FuncNode {
	var cone []*FuncNode
	seen := map[*FuncNode]bool{}
	queue := append([]*FuncNode(nil), targets...)
	for _, t := range targets {
		seen[t] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if !stringIn(n.Pkg.Path, cfg.GoroutinePackages) {
			continue
		}
		cone = append(cone, n)
		for _, e := range n.Edges {
			if e.Callee != nil && !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return cone
}

// checkGoroNode flags every while-style loop in n's body that has a cycle
// with no termination poll.
func (p *Program) checkGoroNode(cfg *Config, st *goroState, n *FuncNode, l goroLaunch) {
	if n.Body == nil {
		return
	}
	shim := &Pass{Cfg: cfg, Pkg: n.Pkg}
	g := NewCFG(n.Body)
	for _, loop := range g.Loops {
		forStmt, ok := loop.Stmt.(*ast.ForStmt)
		if !ok || forStmt.Post != nil {
			continue // range or counted loop: trip count is bounded
		}
		if n.Pkg.commentedWith(forStmt.Pos(), "goroutine:") ||
			n.Pkg.commentedWith(forStmt.Pos(), "cancel:") {
			continue
		}
		polls := func(b *Block) bool {
			for _, nd := range b.Nodes {
				if shim.nodePolls(nd) || chanOpIn(n.Pkg, nd, b.Kind == "range.head") {
					return true
				}
			}
			return false
		}
		if hasCycleAvoiding(g, loop, polls) {
			msg := fmt.Sprintf(
				"goroutine launched at %s can run forever: this loop has a cycle that never polls cancellation or touches a channel; bound it, poll ctx/done, or justify with // goroutine:",
				l.desc)
			if l.joined {
				msg += " (the launcher joins this goroutine, so wg.Wait hangs with it)"
			}
			st.findings[n] = append(st.findings[n], goroFinding{pos: forStmt.Pos(), msg: msg})
		}
	}
}

// chanOpIn reports whether executing node nd performs a channel operation:
// a send, a receive, or — when the node sits in a range head — the
// evaluation of a channel being ranged over. Function literals are opaque
// (their channel ops run when they run).
func chanOpIn(pkg *Package, nd ast.Node, rangeHead bool) bool {
	found := false
	ast.Inspect(nd, func(child ast.Node) bool {
		if found {
			return false
		}
		switch x := child.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			found = true
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
				return false
			}
		case ast.Expr:
			if rangeHead {
				if t := pkg.Info.TypeOf(x); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// launchJoined reports whether the goroutine launched by gs is joined by
// its launcher: the literal body calls wg.Done and the launching function
// calls wg.Wait on the same WaitGroup after the go statement.
func launchJoined(shim *Pass, node *FuncNode, gs *ast.GoStmt, lit *ast.FuncLit) bool {
	doneKeys := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if key, okW := shim.asWgCall(call, "Done"); okW {
				doneKeys[key] = true
			}
		}
		return true
	})
	if len(doneKeys) == 0 {
		return false
	}
	joined := false
	walkOwn(node, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < gs.End() {
			return
		}
		if key, okW := shim.asWgCall(call, "Wait"); okW && doneKeys[key] {
			joined = true
		}
	})
	return joined
}

// shortSite renders a position as "file.go:123" for report messages.
func shortSite(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
