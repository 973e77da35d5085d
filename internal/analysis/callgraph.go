package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// This file builds the interprocedural layer of sialint: a call graph over
// every loaded package, computed once per run and shared by the analyzers
// that need whole-program reachability (alloc-budget, memo-safe).
//
// Resolution strategy, cheapest first:
//
//   - Direct calls to named functions and methods resolve statically.
//   - Interface method calls resolve with class-hierarchy analysis (CHA):
//     the callees are the matching methods of every concrete type in the
//     loaded packages that implements the interface. This over-approximates
//     (no per-callsite points-to), which is the safe direction for both
//     analyzers built on top.
//   - Calls through function-typed variables resolve when every assignment
//     to the variable (including struct-literal field values) is a named
//     function or function literal and the variable's address is never
//     taken; otherwise the call site is a dynamic edge.
//   - Function literals are call-graph nodes of their own, linked to their
//     creator by a closure edge, so code inside a closure created on a hot
//     path is analyzed as part of that path.
//
// Annotations read from function doc comments:
//
//	// sia:hotpath   — entry point for the alloc-budget analyzer
//	// sia:memoize   — entry point for the memo-safe analyzer
//	// alloc: <why>  — decl-level: every allocation in this function is
//	//                 justified (site-level escapes use the same marker on
//	//                 or above the offending line)
//	// memo: <why>   — decl-level counterpart for memo-safe
const (
	markHotPath = "sia:hotpath"
	markMemoize = "sia:memoize"
	markAlloc   = "alloc:"
	markMemo    = "memo:"
)

// EdgeKind classifies how a call site was resolved.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a named function or method.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is an interface method call resolved by CHA; one edge
	// per candidate implementation.
	EdgeInterface
	// EdgeFuncValue is a call through a function-typed variable whose
	// assignments were all tracked to named functions or literals.
	EdgeFuncValue
	// EdgeClosure links a function to a literal it creates (not a call; the
	// literal may run later, so reachability must include it).
	EdgeClosure
	// EdgeDynamic is a call the graph cannot resolve: a function value with
	// untracked assignments, a call of a call result, a method value, etc.
	EdgeDynamic
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeFuncValue:
		return "funcvalue"
	case EdgeClosure:
		return "closure"
	default:
		return "dynamic"
	}
}

// Edge is one outgoing resolution at a call site (or literal creation site).
type Edge struct {
	Site ast.Node // *ast.CallExpr, or *ast.FuncLit for closure edges
	Kind EdgeKind
	// Callee is the in-module target; nil for dynamic edges and for calls
	// that leave the loaded packages (then Ext names the external target).
	Callee *FuncNode
	Ext    *types.Func
	// Terminal marks a call site inside an error-terminal region — a return
	// statement with a non-nil error result, or a panic argument. Such code
	// runs at most once per failure, so hot-path reachability does not
	// traverse it (an err.Error() in a panic message must not drag every
	// error type's formatting code into the allocation budget).
	Terminal bool
}

// FuncNode is one function, method, or function literal in the call graph.
type FuncNode struct {
	Pkg   *Package
	Obj   *types.Func   // nil for literals
	Decl  *ast.FuncDecl // nil for literals
	Lit   *ast.FuncLit  // nil for declared functions
	Encl  *FuncNode     // for literals: the creating function
	Name  string        // qualified display name, e.g. "sia/internal/smt.(*Solver).eliminateInt"
	Body  *ast.BlockStmt
	Edges []Edge

	Hot  bool // carries // sia:hotpath
	Memo bool // carries // sia:memoize

	AllocJustified bool   // decl-level // alloc: escape
	AllocReason    string // text after the marker
	MemoJustified  bool   // decl-level // memo: escape
	MemoReason     string
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Root returns the outermost declared function enclosing n (n itself when it
// is a declaration).
func (n *FuncNode) Root() *FuncNode {
	for n.Encl != nil {
		n = n.Encl
	}
	return n
}

// Program is the whole-program view: every package's call-graph nodes in a
// deterministic order, plus the indexes analyzers query.
type Program struct {
	Pkgs  []*Package
	Nodes []*FuncNode // deterministic: package order, then position

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// concrete named types (per package order) considered by CHA.
	concrete []types.Type

	hotOnce sync.Once
	hotFrom map[*FuncNode]*FuncNode // reachable node -> witness hot entry

	memoOnce sync.Once
	memo     *memoState // memo-safety results, built by memoAnalysis

	goroOnce sync.Once
	goro     *goroState // goroutine-leak results, built by goroAnalysis

	atomicOnce sync.Once
	atomicMix  *atomicState // atomic-mix results, built by atomicAnalysis
}

// NodeOf returns the node for a declared function or method (following
// generic instantiations back to their origin), or nil.
func (p *Program) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return p.byObj[fn]
}

// LitNode returns the node for a function literal, or nil.
func (p *Program) LitNode(lit *ast.FuncLit) *FuncNode { return p.byLit[lit] }

// HotEntries returns the nodes annotated // sia:hotpath, in program order.
func (p *Program) HotEntries() []*FuncNode {
	var out []*FuncNode
	for _, n := range p.Nodes {
		if n.Hot {
			out = append(out, n)
		}
	}
	return out
}

// MemoEntries returns the nodes annotated // sia:memoize, in program order.
func (p *Program) MemoEntries() []*FuncNode {
	var out []*FuncNode
	for _, n := range p.Nodes {
		if n.Memo {
			out = append(out, n)
		}
	}
	return out
}

// HotReachable maps every node reachable from a // sia:hotpath entry to a
// witness entry (the first, in program order, that reaches it). Traversal
// follows static, interface, funcvalue, and closure edges, but not edges
// whose call site is error-terminal (those paths are cold by definition);
// dynamic edges have no callee to follow and are instead reported by
// alloc-budget.
func (p *Program) HotReachable() map[*FuncNode]*FuncNode {
	p.hotOnce.Do(func() {
		p.hotFrom = p.reachableFrom(p.HotEntries(), true)
	})
	return p.hotFrom
}

// ReachableFrom returns the nodes reachable from the given entries (which
// are included), each mapped to the first entry that reaches it. Unlike
// HotReachable it follows error-terminal edges: memo-safety cares about
// effects on every path, including failure paths.
func (p *Program) ReachableFrom(entries []*FuncNode) map[*FuncNode]*FuncNode {
	return p.reachableFrom(entries, false)
}

func (p *Program) reachableFrom(entries []*FuncNode, skipTerminal bool) map[*FuncNode]*FuncNode {
	from := make(map[*FuncNode]*FuncNode)
	for _, entry := range entries {
		if _, ok := from[entry]; ok {
			continue
		}
		queue := []*FuncNode{entry}
		from[entry] = entry
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Edges {
				if e.Callee == nil || (skipTerminal && e.Terminal) {
					continue
				}
				if _, ok := from[e.Callee]; !ok {
					from[e.Callee] = entry
					queue = append(queue, e.Callee)
				}
			}
		}
	}
	return from
}

// BuildProgram constructs the call graph over the given packages.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:  pkgs,
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}
	p.collectNodes()
	p.collectConcreteTypes()
	fv := p.trackFuncValues()
	for _, n := range p.Nodes {
		if n.Body != nil && n.Lit == nil {
			p.resolveBody(n, fv)
		}
	}
	// Literal bodies resolve after declared bodies so that every literal
	// node already exists (collectNodes guarantees this anyway, but the
	// split keeps node order independent of resolution order).
	for _, n := range p.Nodes {
		if n.Body != nil && n.Lit != nil {
			p.resolveBody(n, fv)
		}
	}
	return p
}

// collectNodes creates a FuncNode per declared function and per function
// literal, in deterministic (package, position) order.
func (p *Program) collectNodes() {
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &FuncNode{
					Pkg:  pkg,
					Obj:  obj,
					Decl: fd,
					Name: declName(pkg, fd),
					Body: fd.Body,
				}
				readAnnotations(node, fd.Doc)
				if obj != nil {
					p.byObj[obj] = node
				}
				p.Nodes = append(p.Nodes, node)
				if fd.Body != nil {
					p.collectLits(pkg, node, fd.Body)
				}
			}
		}
	}
}

// collectLits creates nodes for the function literals directly or indirectly
// inside body, attributing each to its nearest enclosing function node.
// ast.Inspect is pre-order, so an enclosing literal's node always exists
// before the literals inside it are reached.
func (p *Program) collectLits(pkg *Package, encl *FuncNode, body ast.Node) {
	var lits []*FuncNode // created in this declaration, in pre-order
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		parent := encl
		for i := len(lits) - 1; i >= 0; i-- {
			if lits[i].Lit.Pos() <= lit.Pos() && lit.End() <= lits[i].Lit.End() {
				parent = lits[i]
				break
			}
		}
		node := &FuncNode{
			Pkg:  pkg,
			Lit:  lit,
			Encl: parent,
			Name: fmt.Sprintf("%s$lit@%s", parent.Name, shortPos(pkg, lit.Pos())),
			Body: lit.Body,
		}
		p.byLit[lit] = node
		p.Nodes = append(p.Nodes, node)
		lits = append(lits, node)
		return true
	})
}

// declName renders a qualified display name for a function declaration.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg.Path + "." + fd.Name.Name
	}
	recv := types.ExprString(fd.Recv.List[0].Type)
	if strings.HasPrefix(recv, "*") {
		return fmt.Sprintf("%s.(*%s).%s", pkg.Path, strings.TrimPrefix(recv, "*"), fd.Name.Name)
	}
	return fmt.Sprintf("%s.%s.%s", pkg.Path, recv, fd.Name.Name)
}

func shortPos(pkg *Package, pos token.Pos) string {
	p := pkg.Fset.Position(pos)
	return fmt.Sprintf("L%d", p.Line)
}

// readAnnotations parses the sia markers out of a doc comment.
func readAnnotations(node *FuncNode, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for i, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		switch {
		case strings.HasPrefix(text, markHotPath):
			node.Hot = true
		case strings.HasPrefix(text, markMemoize):
			node.Memo = true
		case strings.HasPrefix(text, markAlloc):
			node.AllocJustified = true
			node.AllocReason = joinReason(doc.List, i, strings.TrimSpace(strings.TrimPrefix(text, markAlloc)))
		case strings.HasPrefix(text, markMemo):
			node.MemoJustified = true
			node.MemoReason = joinReason(doc.List, i, strings.TrimSpace(strings.TrimPrefix(text, markMemo)))
		}
	}
}

// joinReason extends a marker's first reason line with the continuation
// comment lines that follow it in the group, stopping at the next marker or
// a blank line, so multi-line justifications survive into reports intact.
func joinReason(list []*ast.Comment, i int, first string) string {
	parts := []string{first}
	for j := i + 1; j < len(list); j++ {
		text := strings.TrimSpace(strings.TrimPrefix(list[j].Text, "//"))
		if text == "" || isMarkerLine(text) {
			break
		}
		parts = append(parts, text)
	}
	return strings.TrimSpace(strings.Join(parts, " "))
}

func isMarkerLine(text string) bool {
	return strings.HasPrefix(text, markHotPath) || strings.HasPrefix(text, markMemoize) ||
		strings.HasPrefix(text, markAlloc) || strings.HasPrefix(text, markMemo)
}

// collectConcreteTypes gathers every non-interface named type declared in
// the loaded packages; CHA checks each against the interface at a call site.
func (p *Program) collectConcreteTypes() {
	for _, pkg := range p.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			p.concrete = append(p.concrete, named)
		}
	}
}

// chaTargets returns the implementations of iface's method name across the
// loaded packages' concrete types, in deterministic order.
func (p *Program) chaTargets(iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	seen := map[*FuncNode]bool{}
	for _, ct := range p.concrete {
		var impl types.Type
		switch {
		case types.Implements(ct, iface):
			impl = ct
		case types.Implements(types.NewPointer(ct), iface):
			impl = types.NewPointer(ct)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, nil, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := p.NodeOf(fn); node != nil && !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}

// funcValueInfo records what a function-typed variable can hold.
type funcValueInfo struct {
	targets []*FuncNode
	unknown bool // address taken, untracked assignment, parameter, ...
}

// trackFuncValues scans every package for assignments to function-typed
// variables (including struct-literal field values) and classifies each
// variable as fully tracked or unknown.
func (p *Program) trackFuncValues() map[*types.Var]*funcValueInfo {
	fv := map[*types.Var]*funcValueInfo{}
	get := func(v *types.Var) *funcValueInfo {
		info, ok := fv[v]
		if !ok {
			info = &funcValueInfo{}
			fv[v] = info
		}
		return info
	}
	isFuncVar := func(obj types.Object) (*types.Var, bool) {
		v, ok := obj.(*types.Var)
		if !ok || v.Type() == nil {
			return nil, false
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return nil, false
		}
		return v, true
	}
	record := func(pkg *Package, v *types.Var, rhs ast.Expr) {
		info := get(v)
		rhs = unparen(rhs)
		switch x := rhs.(type) {
		case *ast.FuncLit:
			if node := p.byLit[x]; node != nil {
				info.targets = append(info.targets, node)
				return
			}
		case *ast.Ident:
			if x.Name == "nil" {
				return
			}
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				if node := p.NodeOf(fn); node != nil {
					info.targets = append(info.targets, node)
					return
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok {
				if node := p.NodeOf(fn); node != nil {
					info.targets = append(info.targets, node)
					return
				}
			}
		}
		info.unknown = true
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ValueSpec:
					for i, name := range x.Names {
						v, ok := isFuncVar(pkg.Info.Defs[name])
						if !ok {
							continue
						}
						if i < len(x.Values) && len(x.Values) == len(x.Names) {
							record(pkg, v, x.Values[i])
						} else if len(x.Values) > 0 {
							get(v).unknown = true // multi-value unpacking
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						id, ok := unparen(lhs).(*ast.Ident)
						if !ok {
							continue
						}
						obj := pkg.Info.Defs[id]
						if obj == nil {
							obj = pkg.Info.Uses[id]
						}
						v, ok := isFuncVar(obj)
						if !ok {
							continue
						}
						if len(x.Lhs) == len(x.Rhs) {
							record(pkg, v, x.Rhs[i])
						} else {
							get(v).unknown = true
						}
					}
				case *ast.UnaryExpr:
					if x.Op != token.AND {
						return true
					}
					if id, ok := unparen(x.X).(*ast.Ident); ok {
						if v, ok := isFuncVar(pkg.Info.Uses[id]); ok {
							get(v).unknown = true
						}
					}
				case *ast.CompositeLit:
					st, ok := typeOf(pkg, x).(*types.Struct)
					if !ok {
						if named, okN := typeOf(pkg, x).(*types.Named); okN {
							st, ok = named.Underlying().(*types.Struct)
						}
					}
					if !ok || st == nil {
						return true
					}
					for i, elt := range x.Elts {
						if kv, okKV := elt.(*ast.KeyValueExpr); okKV {
							id, okID := kv.Key.(*ast.Ident)
							if !okID {
								continue
							}
							if v, okV := isFuncVar(pkg.Info.Uses[id]); okV {
								record(pkg, v, kv.Value)
							}
							continue
						}
						// Positional struct literal: field i.
						if i < st.NumFields() {
							if v, okV := isFuncVar(st.Field(i)); okV {
								record(pkg, v, elt)
							}
						}
					}
				case *ast.FuncType:
					// Parameters and results of function types are assigned
					// by calls the tracker does not see.
					for _, fl := range fieldVars(pkg, x) {
						get(fl).unknown = true
					}
				}
				return true
			})
		}
	}
	return fv
}

// fieldVars returns the declared parameter/result variables of a FuncType
// that have function type.
func fieldVars(pkg *Package, ft *ast.FuncType) []*types.Var {
	var out []*types.Var
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
						out = append(out, v)
					}
				}
			}
		}
	}
	collect(ft.Params)
	collect(ft.Results)
	return out
}

// resolveBody resolves every call site directly inside node's body (nested
// literals resolve into their own nodes) and records closure-creation edges.
// Call edges originating inside error-terminal regions are marked Terminal.
func (p *Program) resolveBody(node *FuncNode, fv map[*types.Var]*funcValueInfo) {
	pkg := node.Pkg
	exempt := exemptRanges(pkg, node)
	walkOwn(node, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.FuncLit:
			if ln := p.byLit[x]; ln != nil {
				node.Edges = append(node.Edges, Edge{Site: x, Kind: EdgeClosure, Callee: ln})
			}
		case *ast.CallExpr:
			if edges, ok := p.resolveCall(pkg, x, fv); ok {
				if exempt.covers(x.Pos()) {
					for i := range edges {
						edges[i].Terminal = true
					}
				}
				node.Edges = append(node.Edges, edges...)
			}
		}
	})
}

// walkOwn visits the nodes of fn's body that belong to fn itself, skipping
// the bodies of nested function literals (their nodes own those).
func walkOwn(fn *FuncNode, visit func(ast.Node)) {
	if fn.Body == nil {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.Lit {
			visit(lit) // the creation site belongs to fn; the body does not
			return false
		}
		visit(n)
		return true
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		return walk(n)
	})
}

// resolveCall classifies one call site. The second result is false for
// non-call CallExprs (type conversions and builtins), which produce no edge.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr, fv map[*types.Var]*funcValueInfo) ([]Edge, bool) {
	fun := unwrapCallFun(call.Fun)

	// Type conversions: T(x) where T is a type.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil, false
	}

	switch x := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[x].(type) {
		case *types.Builtin:
			return nil, false
		case *types.Func:
			return []Edge{p.staticEdge(call, obj)}, true
		case *types.Var:
			return p.varEdges(call, obj, fv), true
		case nil:
			// conversions to local named types land here via Types above;
			// anything else unresolved is dynamic.
			return []Edge{{Site: call, Kind: EdgeDynamic}}, true
		default:
			return []Edge{{Site: call, Kind: EdgeDynamic}}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				recv := sel.Recv()
				if iface, okI := recv.Underlying().(*types.Interface); okI {
					targets := p.chaTargets(iface, x.Sel.Name)
					if len(targets) == 0 {
						fn, _ := sel.Obj().(*types.Func)
						return []Edge{{Site: call, Kind: EdgeInterface, Ext: fn}}, true
					}
					edges := make([]Edge, 0, len(targets))
					for _, t := range targets {
						edges = append(edges, Edge{Site: call, Kind: EdgeInterface, Callee: t})
					}
					return edges, true
				}
				if fn, okF := sel.Obj().(*types.Func); okF {
					return []Edge{p.staticEdge(call, fn)}, true
				}
			case types.FieldVal:
				// Calling a function-typed struct field.
				if v, okV := sel.Obj().(*types.Var); okV {
					return p.varEdges(call, v, fv), true
				}
			}
			return []Edge{{Site: call, Kind: EdgeDynamic}}, true
		}
		// Package-qualified identifier: pkg.F(...).
		switch obj := pkg.Info.Uses[x.Sel].(type) {
		case *types.Func:
			return []Edge{p.staticEdge(call, obj)}, true
		case *types.Var:
			return p.varEdges(call, obj, fv), true
		case *types.TypeName:
			return nil, false // conversion through a qualified type
		case *types.Builtin:
			return nil, false // e.g. unsafe builtins
		}
		return []Edge{{Site: call, Kind: EdgeDynamic}}, true
	case *ast.FuncLit:
		if node := p.byLit[x]; node != nil {
			return []Edge{{Site: call, Kind: EdgeStatic, Callee: node}}, true
		}
		return []Edge{{Site: call, Kind: EdgeDynamic}}, true
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StarExpr, *ast.InterfaceType, *ast.StructType, *ast.FuncType:
		return nil, false // conversions to composite type literals
	}
	return []Edge{{Site: call, Kind: EdgeDynamic}}, true
}

// staticEdge builds a static edge, resolving in-module targets to nodes.
func (p *Program) staticEdge(call *ast.CallExpr, fn *types.Func) Edge {
	if node := p.NodeOf(fn); node != nil {
		return Edge{Site: call, Kind: EdgeStatic, Callee: node}
	}
	return Edge{Site: call, Kind: EdgeStatic, Ext: fn}
}

// varEdges builds the edges for a call through a function-typed variable:
// one funcvalue edge per tracked target when every assignment was tracked,
// a single dynamic edge otherwise.
func (p *Program) varEdges(call *ast.CallExpr, v *types.Var, fv map[*types.Var]*funcValueInfo) []Edge {
	info := fv[v]
	if info == nil || info.unknown || len(info.targets) == 0 {
		return []Edge{{Site: call, Kind: EdgeDynamic}}
	}
	sort.Slice(info.targets, func(i, j int) bool { return info.targets[i].Name < info.targets[j].Name })
	edges := make([]Edge, 0, len(info.targets))
	seen := map[*FuncNode]bool{}
	for _, t := range info.targets {
		if seen[t] {
			continue
		}
		seen[t] = true
		edges = append(edges, Edge{Site: call, Kind: EdgeFuncValue, Callee: t})
	}
	return edges
}

// unwrapCallFun strips parens and generic instantiation indexes from a call
// target expression.
func unwrapCallFun(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return e
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func typeOf(pkg *Package, e ast.Expr) types.Type {
	if tv, ok := pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// Shared carries state built once per Run/RunParallel invocation and reused
// across analyzers and packages. The program builds lazily under a
// sync.Once, so runs that enable no interprocedural analyzer never pay for
// the call graph.
type Shared struct {
	once sync.Once
	prog *Program
}

// ProgramFor returns the call graph over all, building it on first use.
func (s *Shared) ProgramFor(all []*Package) *Program {
	s.once.Do(func() { s.prog = BuildProgram(all) })
	return s.prog
}
