package smt

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sia/internal/cache/memo"
	"sia/internal/obs"
)

// ErrBudget is returned (wrapped) when quantifier elimination exceeds the
// solver's size limits. Callers treat it like a solver timeout: Sia gives up
// on the current synthesis rather than crashing.
var ErrBudget = errors.New("smt: elimination budget exceeded")

// ErrInterrupted is returned (wrapped, together with the context's own
// error) when the caller's context is cancelled or its deadline passes
// during a solver call. Unlike ErrBudget — a per-call budget the synthesis
// loop recovers from — ErrInterrupted means the caller walked away, so it
// propagates out of the whole pipeline.
var ErrInterrupted = errors.New("smt: interrupted")

// ErrUnsat is returned by Model when the formula has no model.
var ErrUnsat = errors.New("smt: unsatisfiable")

// Model is a satisfying assignment: exact rational values per variable
// (integer-sorted variables always map to integral rationals).
type Model map[Var]*big.Rat

// Stats counts the work a solver has performed.
type Stats struct {
	SatQueries   int // calls to Satisfiable (including internal ones)
	Eliminations int // quantifier eliminations performed
	ModelQueries int // calls to Model
	SimplexCuts  int // UNSAT answers settled by the rational simplex fast path
}

// Solver decides satisfiability of linear-arithmetic formulas with
// quantifiers and extracts models. The zero value is ready to use; limits
// default to values suited to Sia's predicate sizes.
type Solver struct {
	// MaxNodes bounds the node count of any intermediate formula during a
	// single quantifier elimination. 0 means the default.
	MaxNodes int
	// MaxDisjuncts bounds the number of substitution instances a single
	// Cooper elimination may expand. 0 means the default.
	MaxDisjuncts int
	// MaxModulus bounds the divisibility period δ in Cooper elimination.
	// 0 means the default.
	MaxModulus int
	// Timeout bounds the wall-clock time of one public call (Satisfiable,
	// Valid, Model, QE). Exceeding it returns ErrBudget — the analogue of
	// the Z3 timeout the paper configures ("the optimizer may use SIA
	// with an explicit timeout", §6.2). 0 means no timeout.
	Timeout time.Duration
	// Tracer, when set, emits one qe_memo span (Outcome "hit" or "miss")
	// per outermost quantifier elimination. A nil Tracer is free.
	Tracer *obs.Tracer

	Stats     Stats
	statsMu   sync.Mutex // guards Stats during parallel disjunct elimination
	freshID   atomic.Int64
	ctx       context.Context
	deadline  time.Time
	elimDepth atomic.Int32
}

// arm binds the caller's context and starts the timeout clock for a public
// entry point. Nested public calls (e.g. Model calling QE) keep the
// outermost context, deadline and query kind. The returned func disarms the
// solver and records the call's wall time under sia_smt_query_seconds; it
// must be deferred by every public entry point.
func (s *Solver) arm(ctx context.Context, kind string) func() {
	if s.ctx != nil {
		return func() {}
	}
	s.ctx = ctx
	start := time.Now()
	if s.Timeout > 0 {
		s.deadline = start.Add(s.Timeout)
	}
	return func() {
		s.ctx = nil
		s.deadline = time.Time{}
		mQuerySeconds[kind].Observe(time.Since(start).Seconds())
	}
}

// checkStop returns a non-nil error when the current call must stop: the
// caller's context was cancelled (ErrInterrupted, wrapping ctx.Err()) or
// the per-call timeout expired (ErrBudget). It is polled from the hot
// elimination and enumeration loops, bounding how long a cancellation can
// go unnoticed to a fraction of one solver call.
func (s *Solver) checkStop() error {
	if s.ctx != nil {
		// alloc: context implementations live in the runtime; Err returns a
		// cached sentinel without allocating, and the wrap below only runs
		// on the way out
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrInterrupted, err)
		}
	}
	// memo: the deadline poll can only select early abort (ErrBudget);
	// results that complete are unaffected by the clock
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return fmt.Errorf("%w: timeout after %v", ErrBudget, s.Timeout)
	}
	return nil
}

// New returns a solver with default limits.
func New() *Solver { return &Solver{} }

func (s *Solver) maxNodes() int {
	if s.MaxNodes > 0 {
		return s.MaxNodes
	}
	return 400000
}

func (s *Solver) maxDisjuncts() int {
	if s.MaxDisjuncts > 0 {
		return s.MaxDisjuncts
	}
	return 50000
}

func (s *Solver) maxModulus() int {
	if s.MaxModulus > 0 {
		return s.MaxModulus
	}
	return 100000
}

func (s *Solver) freshVar() Var {
	// memo: the counter only keeps generated names distinct; eliminated
	// variables never appear in results
	id := s.freshID.Add(1)
	// alloc: one short name per eliminated quantifier
	return Var{Name: fmt.Sprintf("$q%d", id), Sort: SortInt}
}

// QE returns a quantifier-free formula equivalent to f.
func (s *Solver) QE(f Formula) (Formula, error) {
	return s.QECtx(context.Background(), f)
}

// QECtx is QE honoring ctx: cancellation surfaces as ErrInterrupted within
// one elimination step.
func (s *Solver) QECtx(ctx context.Context, f Formula) (Formula, error) {
	defer s.arm(ctx, opQE)()
	if err := s.checkStop(); err != nil {
		return nil, err
	}
	switch x := f.(type) {
	case Bool, *Atom, *Div:
		return f, nil
	case *And:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			r, err := s.QE(g)
			if err != nil {
				return nil, err
			}
			fs = append(fs, r)
		}
		return NewAnd(fs...), nil
	case *Or:
		fs := make([]Formula, 0, len(x.Fs))
		for _, g := range x.Fs {
			r, err := s.QE(g)
			if err != nil {
				return nil, err
			}
			fs = append(fs, r)
		}
		return NewOr(fs...), nil
	case *Not:
		inner, err := s.QE(x.F)
		if err != nil {
			return nil, err
		}
		return NewNot(inner), nil
	case *Exists:
		inner, err := s.QE(x.F)
		if err != nil {
			return nil, err
		}
		return s.eliminate(x.V, inner)
	case *ForAll:
		inner, err := s.QE(x.F)
		if err != nil {
			return nil, err
		}
		elim, err := s.eliminate(x.V, NNF(NewNot(inner)))
		if err != nil {
			return nil, err
		}
		return Simplify(NNF(NewNot(elim))), nil
	default:
		panic(fmt.Sprintf("smt: unknown formula %T", f))
	}
}

// qeMemo caches the results of successful eliminations process-wide,
// keyed by (variable sort, variable name, sort-qualified formula key).
// Memoization is sound because elimination is deterministic given (v, f):
// the solver's budgets only decide whether a call aborts early, never what
// a completed call returns, and aborted calls are never cached. Entries
// are immutable interned/simplified formulas shared by all solvers, under
// the same clone-then-mutate discipline the interner enforces.
var qeMemo = memo.New[string, Formula](qeMemoCap)

// qeMemoCap bounds the elimination memo. A synthesis sweep issues tens
// of thousands of eliminations but only ~10k distinct (v, f) keys, and
// the CEGIS loop re-asks old keys across iterations, so the cap must
// hold the whole working set: at 4096 the Table 2/3 workload thrashed
// (≈5.8k evictions against 9.9k misses). 64k entries of small result
// formulas keep residency in the tens of MB while making eviction the
// exception.
const qeMemoCap = 1 << 16

// qeMemoKey renders the memo key for eliminating v from f. The formula
// part is the interner's sort-qualified key, so same-named variables of
// different sorts never share an entry.
// alloc: key rendering; frozen formulas contribute their cached keys.
func qeMemoKey(v Var, f Formula) string {
	b := make([]byte, 0, 64)
	b = append(b, byte(v.Sort))
	b = append(b, v.Name...)
	b = append(b, '\x00')
	b = appendFormulaKey(b, f)
	return string(b)
}

// eliminate removes one existential variable from a quantifier-free
// formula, dispatching on the variable's sort. Existentials distribute over
// disjunction, which keeps intermediate formulas small when the input is
// already a union of cases (as Cooper's output is). Results of completed
// eliminations are memoized in qeMemo; at the outermost level, independent
// disjuncts are eliminated in parallel.
//
// sia:memoize
func (s *Solver) eliminate(v Var, f Formula) (Formula, error) {
	// memo: depth tracking and wall-time observation select only which
	// metrics are recorded; results never depend on them.
	depth := s.elimDepth.Add(1)
	if depth == 1 {
		// memo: wall clock feeds the latency metric only
		start := time.Now()
		defer func() {
			// memo: depth tracking, metrics only
			s.elimDepth.Add(-1)
			// alloc: deferred metrics closure, once per outermost elimination
			// memo: wall-time observation, metrics only
			mQuerySeconds[opElimination].Observe(time.Since(start).Seconds())
		}()
	} else {
		// memo: depth tracking, metrics only
		defer s.elimDepth.Add(-1)
	}
	if err := s.checkStop(); err != nil {
		return nil, err
	}
	f = Simplify(NNF(f))
	if !occurs(v, f) {
		return f, nil
	}
	s.bumpEliminations()
	key := qeMemoKey(v, f)
	// memo: qeMemo lookups are semantically transparent — a hit returns
	// exactly what the recomputation would; counters and spans are
	// observability only.
	if r, ok := qeMemo.Get(key); ok {
		mQEMemoHits.Inc()
		s.traceQEMemo(depth, "hit")
		return r, nil
	}
	mQEMemoMisses.Inc()
	s.traceQEMemo(depth, "miss")
	r, err := s.eliminateUncached(depth, v, f)
	if err != nil {
		return nil, err
	}
	// A result assembled while the context was dying may be incomplete in
	// ways the error plumbing has not surfaced yet at this level; caching
	// it would poison every later call with the same key. Skip the store
	// unless the call is still clean (sia_smt_qe_memo_skips_total).
	if s.checkStop() != nil {
		mQEMemoSkips.Inc()
		return r, nil
	}
	// memo: storing the deterministic result under its key is invisible to
	// every future answer; only recomputation is avoided.
	if _, _, evicted := qeMemo.Add(key, r); evicted {
		mQEMemoEvictions.Inc()
	}
	return r, nil
}

// bumpEliminations counts one elimination request against the solver's
// Stats and the process totals. Memo hits count too: Stats.Eliminations is
// "elimination requests answered", and the memo counters break out how
// many were served from cache.
// memo: statistics counters; results never depend on them. The mutex only
// serializes the per-solver counter against parallel disjunct workers.
func (s *Solver) bumpEliminations() {
	s.statsMu.Lock()
	s.Stats.Eliminations++
	s.statsMu.Unlock()
	mEliminations.Inc()
}

// traceQEMemo emits the per-outermost-elimination memo span.
// memo: tracing is observability only; results never depend on it.
func (s *Solver) traceQEMemo(depth int32, outcome string) {
	if depth == 1 && s.Tracer.Enabled() {
		s.Tracer.Emit(obs.Span{Event: obs.EvQEMemo, Outcome: outcome})
	}
}

// eliminateUncached is eliminate past the memo lookup: the actual
// distribution over disjunction and sort dispatch.
func (s *Solver) eliminateUncached(depth int32, v Var, f Formula) (Formula, error) {
	if or, ok := f.(*Or); ok {
		if depth == 1 && len(or.Fs) >= parallelDisjunctMin && runtime.GOMAXPROCS(0) > 1 {
			return s.eliminateDisjunctsParallel(v, or)
		}
		fs := make([]Formula, 0, len(or.Fs))
		for _, g := range or.Fs {
			r, err := s.eliminate(v, g)
			if err != nil {
				return nil, err
			}
			if b, ok := r.(Bool); ok && bool(b) {
				return Bool(true), nil
			}
			fs = append(fs, r)
		}
		return Simplify(NewOr(fs...)), nil
	}
	if v.Sort == SortInt {
		return s.eliminateInt(v, f)
	}
	return s.eliminateReal(v, f)
}

// parallelDisjunctMin is the smallest outermost disjunct count worth
// fanning out: below it the goroutine setup outweighs the per-disjunct
// elimination work.
const parallelDisjunctMin = 4

// eliminateDisjunctsParallel eliminates v from each disjunct of or on a
// pool of workers that claim disjunct indices off a shared counter (the
// morsel pattern from internal/engine). Results are joined in index order
// and folded exactly as the serial loop does, so the outcome — including
// which error or early Bool(true) the caller observes — matches the
// serial elimination: claims are issued in ascending order and a worker
// finishes what it claimed, so every index before the first error/true
// trigger is complete by the join.
//
// alloc: per-call worker bookkeeping (result slices, WaitGroup); one
// outermost elimination amortizes it over its disjuncts.
// memo: the parallel schedule only reorders independent sub-eliminations;
// the ascending join makes the result identical to the serial loop's.
func (s *Solver) eliminateDisjunctsParallel(v Var, or *Or) (Formula, error) {
	n := len(or.Fs)
	results := make([]Formula, n)
	errs := make([]error, n)
	done := make([]bool, n)
	var next atomic.Int64
	var stop atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// memo: worker goroutines compute independent sub-eliminations;
		// the deterministic ascending join below erases scheduling order.
		go func() {
			defer wg.Done()
			// cancel: claim loop; the shared counter only grows, so each
			// worker exits after at most n claims, and every claimed
			// eliminate polls checkStop internally.
			for {
				// Check stop before claiming, never after: a claimed index
				// is always computed, so the claimed prefix has no gaps and
				// the ascending join below sees every index up to the first
				// error/true trigger.
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := s.eliminate(v, or.Fs[i])
				results[i], errs[i], done[i] = r, err, true
				if err != nil {
					stop.Store(true)
					return
				}
				if b, ok := r.(Bool); ok && bool(b) {
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	fs := make([]Formula, 0, n)
	for i, g := range or.Fs {
		if !done[i] {
			// Only reachable past the first trigger index (claims are
			// ascending and always completed); compute in place so the
			// scan never has to distinguish the two cases.
			results[i], errs[i] = s.eliminate(v, g)
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
		if b, ok := results[i].(Bool); ok && bool(b) {
			return Bool(true), nil
		}
		fs = append(fs, results[i])
	}
	return Simplify(NewOr(fs...)), nil
}

// Satisfiable decides whether f has a model. Free variables are treated as
// existentially quantified.
func (s *Solver) Satisfiable(f Formula) (bool, error) {
	return s.SatisfiableCtx(context.Background(), f)
}

// SatisfiableCtx is Satisfiable honoring ctx: cancellation surfaces as
// ErrInterrupted within one elimination step.
func (s *Solver) SatisfiableCtx(ctx context.Context, f Formula) (bool, error) {
	defer s.arm(ctx, opSat)()
	// A dead context fails fast even when a shortcut (the simplex cut
	// below) could still produce an answer: cancelled means cancelled.
	if err := s.checkStop(); err != nil {
		return false, err
	}
	s.Stats.SatQueries++
	mSatQueries.Inc()
	f = Simplify(NNF(f))
	// Fast path: a conjunction of linear atoms that is already infeasible
	// over the rationals needs no quantifier elimination.
	if simplexCheck(f) == simplexInfeasible {
		s.Stats.SimplexCuts++
		mSimplexCuts.Inc()
		return false, nil
	}
	closed := f
	for _, v := range FreeVars(f) {
		closed = &Exists{V: v, F: closed}
	}
	g, err := s.QE(closed)
	if err != nil {
		return false, err
	}
	g = Simplify(g)
	b, ok := g.(Bool)
	if !ok {
		return false, fmt.Errorf("smt: internal: closed formula reduced to %s", g)
	}
	return bool(b), nil
}

// Valid decides whether f holds under every assignment of its free
// variables.
func (s *Solver) Valid(f Formula) (bool, error) {
	return s.ValidCtx(context.Background(), f)
}

// ValidCtx is Valid honoring ctx.
func (s *Solver) ValidCtx(ctx context.Context, f Formula) (bool, error) {
	sat, err := s.SatisfiableCtx(ctx, NewNot(f))
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// Model returns a satisfying assignment for f's free variables, or ErrUnsat.
//
// The procedure assigns variables one at a time: for each variable v it
// projects all later variables away with quantifier elimination, obtaining
// a univariate formula whose solution set is a finite union of intervals
// (and congruence classes, for integers); it then picks a concrete value
// from that set and substitutes it before moving on. This mirrors how the
// paper extracts concrete tuples from Z3's models (§5.3) while remaining
// exact.
func (s *Solver) Model(f Formula) (Model, error) {
	return s.ModelCtx(context.Background(), f)
}

// ModelCtx is Model honoring ctx: cancellation surfaces as ErrInterrupted
// within one elimination step.
func (s *Solver) ModelCtx(ctx context.Context, f Formula) (Model, error) {
	defer s.arm(ctx, opModel)()
	if err := s.checkStop(); err != nil {
		return nil, err
	}
	s.Stats.ModelQueries++
	mModelQueries.Inc()
	vars := FreeVars(f)
	qf, err := s.QE(f)
	if err != nil {
		return nil, err
	}
	qf = Simplify(NNF(qf))
	if b, ok := qf.(Bool); ok {
		if !bool(b) {
			return nil, ErrUnsat
		}
		m := Model{}
		for _, v := range vars {
			m[v] = new(big.Rat)
		}
		return m, nil
	}

	// Forward elimination: stages[i] == ∃vars[0..i-1]. qf, so stages[i]
	// mentions only vars[i:]. Each stage is computed once.
	stages := make([]Formula, len(vars)+1)
	stages[0] = qf
	for i, v := range vars {
		g, err := s.eliminate(v, stages[i])
		if err != nil {
			return nil, err
		}
		stages[i+1] = g
	}
	if b, ok := Simplify(stages[len(vars)]).(Bool); !ok || !bool(b) {
		return nil, ErrUnsat
	}

	// Back substitution: pick vars[n-1] from stages[n-1] (univariate),
	// then vars[i] from stages[i] with vars[i+1:] already substituted.
	model := Model{}
	for i := len(vars) - 1; i >= 0; i-- {
		v := vars[i]
		g := stages[i]
		for j := i + 1; j < len(vars); j++ {
			g = Subst(g, vars[j], NewTerm(model[vars[j]]))
		}
		g = Simplify(g)
		val, err := solveUnivariate(v, g)
		if err != nil {
			return nil, fmt.Errorf("smt: internal: back substitution failed at %s: %w", v, err)
		}
		model[v] = val
	}
	// Final sanity check: the full assignment must satisfy the formula.
	check := qf
	for _, v := range vars {
		check = Subst(check, v, NewTerm(model[v]))
	}
	if b, ok := Simplify(check).(Bool); !ok || !bool(b) {
		return nil, fmt.Errorf("smt: internal: model check failed")
	}
	return model, nil
}

// solveUnivariate picks a value for v from a satisfiable quantifier-free
// formula whose only free variable is v. The solution set of such a formula
// is a finite union of intervals with endpoints among the atoms' bound
// constants, refined (for integers) by congruence constraints of period δ.
// Testing the bounds themselves, their δ-neighborhoods, and points beyond
// the extremes is therefore complete.
func solveUnivariate(v Var, f Formula) (*big.Rat, error) {
	if b, ok := f.(Bool); ok {
		if !bool(b) {
			return nil, ErrUnsat
		}
		return new(big.Rat), nil // any value works; use 0
	}
	var bounds []*big.Rat
	seenBounds := map[string]bool{}
	delta := big.NewInt(1)
	err := walkLeaves(f, func(leaf Formula) error {
		switch x := leaf.(type) {
		case *Atom:
			c := x.T.Coeff(v)
			if c.Sign() == 0 {
				return fmt.Errorf("smt: internal: ground atom %s survived simplification", x)
			}
			rest := new(big.Rat).Set(x.T.Const())
			// bound = -rest/c
			b := rest.Neg(rest)
			b.Quo(b, c)
			if key := b.RatString(); !seenBounds[key] {
				seenBounds[key] = true
				bounds = append(bounds, b)
			}
		case *Div:
			if x.T.Has(v) {
				lcmInto(delta, x.M)
			}
		default:
			// walkLeaves yields only Atom and Div leaves.
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var candidates []*big.Rat
	seenCand := map[string]bool{}
	push := func(r *big.Rat) {
		if key := r.RatString(); !seenCand[key] {
			seenCand[key] = true
			candidates = append(candidates, r)
		}
	}
	if v.Sort == SortInt {
		if !delta.IsInt64() || delta.Int64() > 1_000_000 {
			return nil, fmt.Errorf("%w: univariate period %s too large", ErrBudget, delta)
		}
		dn := delta.Int64()
		if est := int64(2*len(bounds)+1) * (2*dn + 3); est > 500000 {
			return nil, fmt.Errorf("%w: %d univariate candidates", ErrBudget, est)
		}
		base := []*big.Rat{new(big.Rat)}
		for _, b := range bounds {
			fl := ratFloor(b)
			base = append(base, new(big.Rat).SetInt(fl), new(big.Rat).SetInt(new(big.Int).Add(fl, bigOne)))
		}
		if base64, ok := intBases64(base, dn); ok {
			// Lazy int64 scan: identical candidate order and dedup as the
			// materializing loop below, so the first satisfying value — the
			// function's result — is unchanged, but candidates after it are
			// never built and dedup keys never allocate.
			seen64 := make(map[int64]bool, len(base64))
			for _, b := range base64 {
				for j := int64(-dn - 1); j <= dn+1; j++ {
					n := b + j
					if seen64[n] {
						continue
					}
					seen64[n] = true
					g := Simplify(Subst(f, v, ConstTerm(n)))
					if sat, ok := g.(Bool); ok && bool(sat) {
						return new(big.Rat).SetInt64(n), nil
					}
				}
			}
			return nil, ErrUnsat
		}
		for _, b := range base {
			for j := int64(-dn - 1); j <= dn+1; j++ {
				push(new(big.Rat).Add(b, new(big.Rat).SetInt64(j)))
			}
		}
	} else {
		push(new(big.Rat))
		sort.Slice(bounds, func(i, j int) bool { return bounds[i].Cmp(bounds[j]) < 0 })
		for i, b := range bounds {
			push(new(big.Rat).Set(b))
			if i+1 < len(bounds) {
				mid := new(big.Rat).Add(b, bounds[i+1])
				mid.Quo(mid, big.NewRat(2, 1))
				push(mid)
			}
		}
		if len(bounds) > 0 {
			push(new(big.Rat).Sub(bounds[0], ratOne))
			push(new(big.Rat).Add(bounds[len(bounds)-1], ratOne))
		}
	}

	for _, cand := range candidates {
		g := Simplify(Subst(f, v, NewTerm(cand)))
		if b, ok := g.(Bool); ok && bool(b) {
			return cand, nil
		}
	}
	return nil, ErrUnsat
}

// ratFloor returns ⌊r⌋ as a big.Int.
func ratFloor(r *big.Rat) *big.Int {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, bigOne)
	}
	return q
}
