package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MemoSafe returns the memo-safe analyzer: it certifies that every function
// annotated // sia:memoize is memoization-pure — calling it twice with the
// same arguments yields the same result and no observable side effect — by
// checking the function and everything reachable from it for:
//
//   - writes to package-level variables (directly or by calling a mutating
//     method on one)
//   - mutation of values reachable from the entry's parameters (the memo
//     key must not change under the cache's feet); mutation of locally
//     allocated values is fine and tracked by a provenance analysis
//   - nondeterminism: time, rand, I/O, channel operations, goroutines,
//     synchronization primitives
//   - map iteration order reaching the output (a range over a map whose
//     body appends or concatenates into an outer accumulator)
//   - calls that cannot be resolved (untracked function values), which
//     cannot be proven pure
//
// The analysis is optimistic in one documented way: a call result is
// assumed to be freshly allocated (owned by the caller), which matches the
// clone-then-mutate style of this codebase. Effects are summarized per
// function and propagated over the call graph to a fixpoint, so a helper
// that mutates its receiver (e.g. (*Term).AddVar) is not itself a
// violation; the violation surfaces only at a call site that feeds it
// non-owned data.
//
// An effect is justified with `// memo: <reason>` on the line or the line
// above (site level) or in the function's doc comment (decl level, blankets
// the function). Justified effects do not propagate.
func MemoSafe(cfg *Config) *Analyzer {
	return &Analyzer{
		Name: "memo-safe",
		Doc:  "certifies // sia:memoize functions are memoization-pure",
		Run:  runMemoSafe,
	}
}

func runMemoSafe(pass *Pass) {
	prog := pass.Program()
	st := prog.memoAnalysis()
	if st == nil {
		return
	}
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg {
			continue
		}
		for _, v := range st.viols[node] {
			pass.Reportf(v.pos, "memo-unsafe (entry %s): %s", st.from[node].Name, v.msg)
		}
	}
}

// memoIssue is one effect at a site: a violation (reason == "") or a
// justified effect.
type memoIssue struct {
	pos    token.Pos
	msg    string
	reason string
}

// memoSummary is a function's propagated effect summary. Only unjustified
// effects set bits.
type memoSummary struct {
	mutParams []bool // parameter (receiver first) may be mutated
}

type memoState struct {
	from  map[*FuncNode]*FuncNode // memo-reachable node -> witness entry
	sums  map[*FuncNode]*memoSummary
	viols map[*FuncNode][]memoIssue // unjustified, AST order
	justs map[*FuncNode][]memoIssue // justified, AST order
}

// memoAnalysis runs the whole-program memo-safety analysis once per
// Program and caches the result. Returns nil when there are no
// // sia:memoize entries.
func (p *Program) memoAnalysis() *memoState {
	p.memoOnce.Do(func() {
		entries := p.MemoEntries()
		if len(entries) == 0 {
			return
		}
		st := &memoState{
			from:  p.reachableFrom(entries, false),
			sums:  map[*FuncNode]*memoSummary{},
			viols: map[*FuncNode][]memoIssue{},
			justs: map[*FuncNode][]memoIssue{},
		}
		// Analysis granularity is the outermost declaration: a closure's
		// effects belong to its creator, which keeps captured variables in
		// scope of one provenance analysis. A literal reachable without its
		// root (via a tracked function value) is analyzed standalone.
		var units []*FuncNode
		seen := map[*FuncNode]bool{}
		for _, n := range p.Nodes {
			if _, ok := st.from[n]; !ok {
				continue
			}
			u := n.Root()
			if _, rootReachable := st.from[u]; !rootReachable {
				u = n
			}
			if !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
		for _, u := range units {
			st.sums[u] = &memoSummary{mutParams: make([]bool, numParams(u))}
		}
		// Fixpoint on parameter-mutation bits.
		for changed := true; changed; {
			changed = false
			for _, u := range units {
				sc := newMemoScan(p, st, u)
				sc.run(false)
				for i, b := range sc.mutParams {
					if b && !st.sums[u].mutParams[i] {
						st.sums[u].mutParams[i] = true
						changed = true
					}
				}
			}
		}
		// Final pass: collect violations and justifications.
		for _, u := range units {
			sc := newMemoScan(p, st, u)
			sc.run(true)
			st.viols[u] = sc.viols
			st.justs[u] = sc.justs
		}
		p.memo = st
	})
	return p.memo
}

// numParams counts receiver + parameters of a unit.
func numParams(u *FuncNode) int {
	sig := unitSignature(u)
	if sig == nil {
		return 0
	}
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n
}

func unitSignature(u *FuncNode) *types.Signature {
	if u.Obj != nil {
		sig, _ := u.Obj.Type().(*types.Signature)
		return sig
	}
	if u.Lit != nil {
		sig, _ := typeOf(u.Pkg, u.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// provenance of a local variable: the parameters it may alias, plus global
// and unknown escape bits. Empty provenance means locally owned.
type provSet struct {
	params  map[*types.Var]bool
	global  bool
	unknown bool
}

func (ps *provSet) owned() bool {
	return ps != nil && len(ps.params) == 0 && !ps.global && !ps.unknown
}

// provSource is one assignment's contribution to a variable's provenance.
type provSource struct {
	fresh   bool
	ref     *types.Var
	global  bool
	unknown bool
}

// memoScan analyzes one unit (declaration plus nested literals).
type memoScan struct {
	prog *Program
	st   *memoState
	unit *FuncNode
	pkg  *Package

	params    map[*types.Var]int // receiver/param var -> index in mutParams
	litParams map[*types.Var]bool
	prov      map[*types.Var]*provSet
	edges     map[ast.Node][]Edge

	isEntry   bool
	declJust  bool // decl-level // memo: blanket
	collect   bool
	mutParams []bool
	viols     []memoIssue
	justs     []memoIssue
}

func newMemoScan(p *Program, st *memoState, u *FuncNode) *memoScan {
	sc := &memoScan{
		prog:      p,
		st:        st,
		unit:      u,
		pkg:       u.Pkg,
		params:    map[*types.Var]int{},
		litParams: map[*types.Var]bool{},
		edges:     map[ast.Node][]Edge{},
		isEntry:   u.Memo,
		mutParams: make([]bool, numParams(u)),
	}
	for n := u; n != nil; n = n.Encl {
		if n.MemoJustified {
			sc.declJust = true
		}
	}
	sig := unitSignature(u)
	if sig != nil {
		idx := 0
		if r := sig.Recv(); r != nil {
			sc.params[r] = idx
			idx++
		}
		for i := 0; i < sig.Params().Len(); i++ {
			sc.params[sig.Params().At(i)] = idx
			idx++
		}
	}
	// Parameters of nested literals: aliasable, but not attributable to the
	// unit's own parameters.
	sc.inspectUnit(func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || lit == u.Lit {
			return true
		}
		if lsig, okS := typeOf(u.Pkg, lit).(*types.Signature); okS {
			for i := 0; i < lsig.Params().Len(); i++ {
				sc.litParams[lsig.Params().At(i)] = true
			}
		}
		return true
	})
	// Merge edge maps of the unit and its literals.
	addEdges := func(n *FuncNode) {
		for _, e := range n.Edges {
			sc.edges[e.Site] = append(sc.edges[e.Site], e)
		}
	}
	addEdges(u)
	for _, n := range p.Nodes {
		if n.Lit != nil && n != u && n.Root() == u.Root() && nodeInside(n, u) {
			addEdges(n)
		}
	}
	sc.solveProvenance()
	return sc
}

// nodeInside reports whether lit node n lies inside unit u's body.
func nodeInside(n, u *FuncNode) bool {
	if u.Body == nil || n.Lit == nil {
		return false
	}
	return u.Body.Pos() <= n.Lit.Pos() && n.Lit.End() <= u.Body.End()
}

// inspectUnit walks the unit's full body, including nested literals.
func (sc *memoScan) inspectUnit(visit func(ast.Node) bool) {
	if sc.unit.Body == nil {
		return
	}
	ast.Inspect(sc.unit.Body, visit)
}

// solveProvenance computes each local variable's provenance to a fixpoint.
func (sc *memoScan) solveProvenance() {
	sources := map[*types.Var][]provSource{}
	addSource := func(id *ast.Ident, src provSource) {
		obj := objectOf(sc.pkg, id)
		v, ok := obj.(*types.Var)
		if !ok || sc.isPackageLevel(v) {
			return
		}
		if _, isParam := sc.params[v]; isParam {
			return
		}
		if sc.litParams[v] {
			return
		}
		sources[v] = append(sources[v], src)
	}
	sc.inspectUnit(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			for i, name := range x.Names {
				switch {
				case len(x.Values) == 0:
					addSource(name, provSource{fresh: true}) // zero value
				case len(x.Values) == len(x.Names):
					addSource(name, sc.exprSource(x.Values[i]))
				case len(x.Values) == 1:
					// Multi-value: a call (fresh results) or unknown.
					if _, isCall := unparen(x.Values[0]).(*ast.CallExpr); isCall {
						addSource(name, provSource{fresh: true})
					} else {
						addSource(name, sc.exprSource(x.Values[0]))
					}
				}
			}
		case *ast.AssignStmt:
			switch {
			case len(x.Lhs) == len(x.Rhs):
				for i, lhs := range x.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						addSource(id, sc.exprSource(x.Rhs[i]))
					}
				}
			case len(x.Rhs) == 1:
				src := sc.exprSource(x.Rhs[0])
				if _, isCall := unparen(x.Rhs[0]).(*ast.CallExpr); isCall {
					src = provSource{fresh: true}
				}
				for _, lhs := range x.Lhs {
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						addSource(id, src)
					}
				}
			}
		case *ast.RangeStmt:
			src := sc.exprSource(x.X)
			for _, e := range []ast.Expr{x.Key, x.Value} {
				if e == nil {
					continue
				}
				if id, ok := unparen(e).(*ast.Ident); ok {
					addSource(id, src)
				}
			}
		case *ast.TypeSwitchStmt:
			// `switch y := x.(type)`: y aliases x.
			if assign, ok := x.Assign.(*ast.AssignStmt); ok && len(assign.Lhs) == 1 && len(assign.Rhs) == 1 {
				if id, okID := unparen(assign.Lhs[0]).(*ast.Ident); okID {
					if ta, okTA := unparen(assign.Rhs[0]).(*ast.TypeAssertExpr); okTA {
						addSource(id, sc.exprSource(ta.X))
					}
				}
				// Each case clause redeclares y with its own object.
				for _, clause := range x.Body.List {
					cc, okCC := clause.(*ast.CaseClause)
					if !okCC {
						continue
					}
					if obj, okO := sc.pkg.Info.Implicits[cc].(*types.Var); okO {
						if ta, okTA := unparen(assign.Rhs[0]).(*ast.TypeAssertExpr); okTA {
							src := sc.exprSource(ta.X)
							if !sc.isPackageLevel(obj) {
								sources[obj] = append(sources[obj], src)
							}
						}
					}
				}
			}
		}
		return true
	})

	sc.prov = map[*types.Var]*provSet{}
	get := func(v *types.Var) *provSet {
		ps, ok := sc.prov[v]
		if !ok {
			ps = &provSet{params: map[*types.Var]bool{}}
			sc.prov[v] = ps
		}
		return ps
	}
	for v := range sc.params {
		get(v).params[v] = true
	}
	for v := range sc.litParams {
		get(v).unknown = true
	}
	for changed := true; changed; {
		changed = false
		for v, srcs := range sources {
			ps := get(v)
			for _, src := range srcs {
				switch {
				case src.fresh:
				case src.global:
					if !ps.global {
						ps.global = true
						changed = true
					}
				case src.unknown:
					if !ps.unknown {
						ps.unknown = true
						changed = true
					}
				case src.ref != nil:
					if rp, ok := sc.prov[src.ref]; ok {
						for pv := range rp.params {
							if !ps.params[pv] {
								ps.params[pv] = true
								changed = true
							}
						}
						if rp.global && !ps.global {
							ps.global = true
							changed = true
						}
						if rp.unknown && !ps.unknown {
							ps.unknown = true
							changed = true
						}
					} else if sc.isPackageLevel(src.ref) {
						if !ps.global {
							ps.global = true
							changed = true
						}
					}
					// A ref to a var with no provenance entry and no
					// sources is locally owned: contributes nothing.
				}
			}
		}
	}
}

func (sc *memoScan) isPackageLevel(v *types.Var) bool {
	return v != nil && sc.pkg.Types != nil && v.Parent() == sc.pkg.Types.Scope() ||
		v != nil && v.Pkg() != nil && v.Pkg() != sc.pkg.Types && v.Parent() == v.Pkg().Scope()
}

// exprSource classifies what a right-hand side aliases.
func (sc *memoScan) exprSource(e ast.Expr) provSource {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "nil" {
			return provSource{fresh: true}
		}
		switch obj := objectOf(sc.pkg, x).(type) {
		case *types.Var:
			if sc.isPackageLevel(obj) {
				return provSource{global: true}
			}
			return provSource{ref: obj}
		case *types.Func:
			return provSource{fresh: true}
		case *types.Const:
			return provSource{fresh: true}
		}
		return provSource{unknown: true}
	case *ast.BasicLit, *ast.CompositeLit, *ast.FuncLit:
		return provSource{fresh: true}
	case *ast.CallExpr:
		// Conversions preserve aliasing; real calls return fresh values
		// (documented optimism).
		if tv, ok := sc.pkg.Info.Types[unwrapCallFun(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return sc.exprSource(x.Args[0])
		}
		return provSource{fresh: true}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return sc.exprSource(x.X)
		}
		if x.Op == token.ARROW {
			return provSource{unknown: true}
		}
		return provSource{fresh: true}
	case *ast.BinaryExpr:
		return provSource{fresh: true}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr, *ast.StarExpr, *ast.SliceExpr:
		return sc.rootSource(e)
	case *ast.TypeAssertExpr:
		return sc.exprSource(x.X)
	}
	return provSource{unknown: true}
}

// rootSource finds the base variable of a selector/index/deref chain.
func (sc *memoScan) rootSource(e ast.Expr) provSource {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			// Package-qualified global: pkg.Var.
			if v, ok := sc.pkg.Info.Uses[x.Sel].(*types.Var); ok && sc.isPackageLevel(v) {
				return provSource{global: true}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			return sc.exprSource(x)
		case *ast.CallExpr:
			return sc.exprSource(x)
		case *ast.CompositeLit:
			return provSource{fresh: true}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return provSource{unknown: true}
		default:
			return provSource{unknown: true}
		}
	}
}

// provOf resolves a source to a provenance set.
func (sc *memoScan) provOf(src provSource) *provSet {
	switch {
	case src.fresh:
		return &provSet{params: map[*types.Var]bool{}}
	case src.global:
		return &provSet{params: map[*types.Var]bool{}, global: true}
	case src.unknown:
		return &provSet{params: map[*types.Var]bool{}, unknown: true}
	case src.ref != nil:
		if ps, ok := sc.prov[src.ref]; ok {
			return ps
		}
		if sc.isPackageLevel(src.ref) {
			return &provSet{params: map[*types.Var]bool{}, global: true}
		}
		return &provSet{params: map[*types.Var]bool{}} // owned local
	}
	return &provSet{params: map[*types.Var]bool{}, unknown: true}
}

// effect records one impure effect at pos; justification is resolved here.
func (sc *memoScan) effect(pos token.Pos, entryOnly bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if reason, ok := sc.pkg.justification(pos, markMemo); ok {
		if sc.collect {
			sc.justs = append(sc.justs, memoIssue{pos: pos, msg: msg, reason: reason})
		}
		return
	}
	if sc.declJust {
		if sc.collect {
			sc.justs = append(sc.justs, memoIssue{pos: pos, msg: msg, reason: sc.unit.MemoReason})
		}
		return
	}
	if entryOnly && !sc.isEntry {
		return // deferred to call sites via the summary bit
	}
	if sc.collect {
		sc.viols = append(sc.viols, memoIssue{pos: pos, msg: msg})
	}
}

// mutate handles a mutation of the value rooted at src.
func (sc *memoScan) mutate(pos token.Pos, src provSource, what string) {
	ps := sc.provOf(src)
	if ps.owned() {
		return
	}
	justified := false
	if _, ok := sc.pkg.justification(pos, markMemo); ok {
		justified = true
	}
	for pv := range ps.params {
		if idx, ok := sc.params[pv]; ok && !justified && !sc.declJust {
			sc.mutParams[idx] = true
		}
	}
	if len(ps.params) > 0 {
		names := make([]string, 0, len(ps.params))
		for pv := range ps.params {
			names = append(names, pv.Name())
		}
		sortStrings(names)
		sc.effect(pos, true, "%s may mutate parameter %s (the memo key must stay immutable)", what, strings.Join(names, ", "))
	}
	if ps.global {
		sc.effect(pos, false, "%s mutates package-level state", what)
	}
	if ps.unknown {
		sc.effect(pos, false, "%s mutates a value of unknown provenance", what)
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// run performs the effect scan. With collect=false only summary bits are
// computed (fixpoint iterations); with collect=true violations and
// justifications are recorded in AST order.
func (sc *memoScan) run(collect bool) {
	sc.collect = collect
	sc.inspectUnit(func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			sc.scanAssignEffects(x)
		case *ast.IncDecStmt:
			sc.scanWriteTarget(x.X, "update")
		case *ast.SendStmt:
			sc.effect(x.Pos(), false, "channel send is scheduling-dependent")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sc.effect(x.Pos(), false, "channel receive is scheduling-dependent")
			}
		case *ast.SelectStmt:
			sc.effect(x.Pos(), false, "select is scheduling-dependent")
		case *ast.GoStmt:
			sc.effect(x.Pos(), false, "spawning a goroutine is not memoization-pure")
		case *ast.RangeStmt:
			sc.scanMapRange(x)
		case *ast.CallExpr:
			sc.scanCallEffects(x)
		}
		return true
	})
}

// scanAssignEffects flags writes to globals and mutations through
// references on the left-hand sides.
func (sc *memoScan) scanAssignEffects(x *ast.AssignStmt) {
	for _, lhs := range x.Lhs {
		sc.scanWriteTarget(lhs, "assignment")
	}
}

func (sc *memoScan) scanWriteTarget(lhs ast.Expr, what string) {
	switch t := unparen(lhs).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if v, ok := objectOf(sc.pkg, t).(*types.Var); ok && sc.isPackageLevel(v) {
			sc.effect(t.Pos(), false, "%s writes package-level variable %s", what, v.Name())
		}
		// Rebinding a local is not a heap mutation.
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		if sc.isValueFieldWrite(lhs) {
			return
		}
		sc.mutate(lhs.Pos(), sc.rootSource(lhs), what)
	}
}

// isValueFieldWrite reports whether lhs writes a field reached from a local
// or parameter variable through value-typed selections only. Such a write
// lands in this function's stack copy — a value receiver's `o.X = v` cannot
// be seen by the caller — so it is not a mutation of the memo key. Any
// pointer along the selection chain (Go auto-dereferences `p.X` for
// pointer p) escapes the copy and disqualifies.
func (sc *memoScan) isValueFieldWrite(lhs ast.Expr) bool {
	e := unparen(lhs)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		t := typeOf(sc.pkg, sel.X)
		if t == nil {
			return false
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return false
		}
		e = unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := objectOf(sc.pkg, id).(*types.Var)
	if !ok || v == nil || sc.isPackageLevel(v) {
		return false
	}
	return true
}

// scanMapRange flags map iterations whose order can reach the output.
func (sc *memoScan) scanMapRange(x *ast.RangeStmt) {
	t := typeOf(sc.pkg, x.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	orderSink := false
	ast.Inspect(x.Body, func(n ast.Node) bool {
		if orderSink {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			if call, okC := unparen(rhs).(*ast.CallExpr); okC && isBuiltin(sc.pkg, call, "append") {
				orderSink = true
			}
		}
		if as.Tok == token.ADD_ASSIGN {
			if lt := typeOf(sc.pkg, as.Lhs[0]); lt != nil && isString(lt) {
				orderSink = true
			}
		}
		return true
	})
	if orderSink {
		sc.effect(x.Pos(), false, "map iteration order reaches an ordered accumulator (append/concat inside range over map)")
	}
}

// nondetFuncs are external calls that break determinism on their own.
var nondetFuncs = map[string]string{
	"time.Now":       "reads the clock",
	"time.Since":     "reads the clock",
	"time.Until":     "reads the clock",
	"time.After":     "reads the clock",
	"time.Tick":      "reads the clock",
	"time.Sleep":     "depends on the clock",
	"time.NewTimer":  "depends on the clock",
	"time.NewTicker": "depends on the clock",
}

// nondetPkgs are external packages whose calls are treated as I/O or
// entropy: any call into them is a violation.
var nondetPkgs = map[string]string{
	"math/rand":    "randomness",
	"math/rand/v2": "randomness",
	"crypto/rand":  "randomness",
	"os":           "operating-system state",
	"os/exec":      "operating-system state",
	"io":           "I/O",
	"io/fs":        "I/O",
	"bufio":        "I/O",
	"net":          "network I/O",
	"net/http":     "network I/O",
	"syscall":      "operating-system state",
}

// bigReadOnly are math/big methods that do not mutate their receiver.
var bigReadOnly = map[string]bool{
	"Cmp": true, "CmpAbs": true, "Sign": true, "String": true, "Text": true,
	"RatString": true, "FloatString": true, "Num": true, "Denom": true,
	"IsInt": true, "Int64": true, "Uint64": true, "IsInt64": true,
	"IsUint64": true, "Float64": true, "Float32": true, "BitLen": true,
	"Bit": true, "Bits": true, "Bytes": true, "ProbablyPrime": true,
	"MarshalText": true, "MarshalJSON": true, "Format": true, "Append": true,
	"AppendText": true, "TrailingZeroBits": true, "Acc": true, "Prec": true,
	"MinPrec": true, "Mode": true, "Signbit": true, "IsInf": true,
	"MantExp": true,
}

// extMutatesArg0 are external functions that mutate their first argument.
var extMutatesArg0 = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Strings": true, "sort.Ints": true,
	"fmt.Fprintf": true, "fmt.Fprint": true, "fmt.Fprintln": true,
}

// scanCallEffects resolves a call site's effects: builtins that mutate,
// nondeterministic externals, mutating externals, summarized in-module
// callees, and unresolvable targets.
func (sc *memoScan) scanCallEffects(call *ast.CallExpr) {
	fun := unwrapCallFun(call.Fun)

	// Mutating builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, okB := sc.pkg.Info.Uses[id].(*types.Builtin); okB {
			switch b.Name() {
			case "delete", "clear":
				if len(call.Args) > 0 {
					sc.mutate(call.Pos(), sc.rootSource(call.Args[0]), b.Name())
				}
			case "copy":
				if len(call.Args) > 0 {
					sc.mutate(call.Pos(), sc.rootSource(call.Args[0]), "copy")
				}
			}
			return
		}
	}

	for _, e := range sc.edges[ast.Node(call)] {
		switch {
		case e.Kind == EdgeDynamic:
			sc.effect(call.Pos(), false, "call through unresolved function value (cannot prove purity)")
		case e.Callee != nil:
			sc.checkSummarizedCall(call, e.Callee)
		case e.Ext != nil:
			sc.checkExternalCall(call, e.Ext)
		}
	}
}

// checkSummarizedCall applies an in-module callee's summary at this site.
func (sc *memoScan) checkSummarizedCall(call *ast.CallExpr, callee *FuncNode) {
	unit := callee.Root()
	sum := sc.st.sums[unit]
	if sum == nil || callee != unit {
		// Effects of literals are attributed to their creating unit; the
		// call itself adds nothing beyond them.
		return
	}
	sig := unitSignature(unit)
	if sig == nil {
		return
	}
	hasRecv := sig.Recv() != nil
	for idx, mutated := range sum.mutParams {
		if !mutated {
			continue
		}
		arg := sc.argExpr(call, idx, hasRecv)
		if arg == nil {
			continue
		}
		sc.mutate(call.Pos(), sc.rootSource(arg), fmt.Sprintf("call to %s", unit.Name))
	}
}

// argExpr maps a summary parameter index to the expression at the call
// site; index 0 is the receiver for methods.
func (sc *memoScan) argExpr(call *ast.CallExpr, idx int, hasRecv bool) ast.Expr {
	if hasRecv {
		if idx == 0 {
			if selx, ok := unwrapCallFun(call.Fun).(*ast.SelectorExpr); ok {
				return selx.X
			}
			return nil
		}
		idx--
	}
	if idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// checkExternalCall classifies a call that leaves the loaded packages.
func (sc *memoScan) checkExternalCall(call *ast.CallExpr, ext *types.Func) {
	full := ext.FullName()
	if desc, ok := nondetFuncs[full]; ok {
		sc.effect(call.Pos(), false, "%s %s", full, desc)
		return
	}
	if pkg := ext.Pkg(); pkg != nil {
		if desc, ok := nondetPkgs[pkg.Path()]; ok {
			sc.effect(call.Pos(), false, "call into %s (%s)", pkg.Path(), desc)
			return
		}
		if strings.HasPrefix(pkg.Path(), "sync") {
			sc.effect(call.Pos(), false, "synchronization primitive %s is not memoization-pure", full)
			return
		}
		if pkg.Path() == "math/big" && strings.HasPrefix(full, "(*math/big.") && !bigReadOnly[ext.Name()] {
			if selx, ok := unwrapCallFun(call.Fun).(*ast.SelectorExpr); ok {
				sc.mutate(call.Pos(), sc.rootSource(selx.X), full)
			}
			return
		}
	}
	if extMutatesArg0[full] && len(call.Args) > 0 {
		sc.mutate(call.Pos(), sc.rootSource(call.Args[0]), full)
		return
	}
	// Everything else external (strings, strconv, sha256 sums, read-only
	// big methods, builders on owned receivers via their own packages) is
	// assumed pure on its arguments — documented optimism.
}
