package predtest

import (
	"math"
	"math/rand"

	"sia/internal/predicate"
)

// edge is the largest magnitude two of which still add up inside int64:
// (MaxInt64−1)/2. Generated tables put it (and MinInt64) in integral
// columns, so a linear atom over such a column sits exactly on, or just
// past, the engine's overflow guard.
const edge = (math.MaxInt64 - 1) / 2

// Gen draws random predicates and rows over one schema from a seed, for
// differential tests that pin every interpretation of a predicate to
// predicate.Eval. The predicates mix AND, OR, NOT and literals over
// comparisons of linear, rational (division by a constant) and non-linear
// expressions; the rows mix small values with ±edge, MinInt64 and NULLs.
type Gen struct {
	r      *rand.Rand
	schema *predicate.Schema
}

// NewGen returns a generator seeded with seed. Its schema has a clustered
// NOT NULL INTEGER a (so zone maps of consecutive rows differ), a NOT NULL
// INTEGER b, a NOT NULL DATE d, a nullable INTEGER n and a nullable
// DOUBLE x.
func NewGen(seed int64) *Gen {
	return &Gen{r: rand.New(rand.NewSource(seed)), schema: predicate.NewSchema(
		predicate.Column{Name: "a", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "b", Type: predicate.TypeInteger, NotNull: true},
		predicate.Column{Name: "d", Type: predicate.TypeDate, NotNull: true},
		predicate.Column{Name: "n", Type: predicate.TypeInteger},
		predicate.Column{Name: "x", Type: predicate.TypeDouble},
	)}
}

// Schema returns the schema the generated predicates and rows range over.
func (g *Gen) Schema() *predicate.Schema { return g.schema }

// Rows returns n rows in schema order. Each integral column picks one
// regime for the whole call: small values only, small values with some
// ±edge, or small values with some MinInt64. The nullable columns are
// NULL on about a fifth of the rows, or on every row.
func (g *Gen) Rows(n int) [][]predicate.Value {
	const (
		small = iota
		withEdge
		withMinInt
	)
	regime := map[string]int{}
	for _, c := range g.schema.Columns() {
		switch k := g.r.Intn(10); {
		case k < 6:
			regime[c.Name] = small
		case k < 8:
			regime[c.Name] = withEdge
		default:
			regime[c.Name] = withMinInt
		}
	}
	allNull := g.r.Intn(4) == 0
	out := make([][]predicate.Value, n)
	for i := range out {
		row := make([]predicate.Value, 0, len(g.schema.Columns()))
		for _, c := range g.schema.Columns() {
			if !c.NotNull && (allNull || g.r.Intn(5) == 0) {
				row = append(row, predicate.NullValue())
				continue
			}
			if c.Type == predicate.TypeDouble {
				row = append(row, predicate.RealVal(float64(g.r.Intn(161)-80)/4))
				continue
			}
			v := int64(g.r.Intn(41) - 20)
			if c.Name == "a" {
				v = int64(i*40/max(n, 1)-20) + int64(g.r.Intn(3))
			}
			if g.r.Intn(8) == 0 {
				switch regime[c.Name] {
				case withEdge:
					v = edge
					if g.r.Intn(2) == 0 {
						v = -edge
					}
				case withMinInt:
					v = math.MinInt64
				}
			}
			row = append(row, predicate.IntVal(v))
		}
		out[i] = row
	}
	return out
}

// Predicate returns a random predicate of at most depth connectives.
func (g *Gen) Predicate(depth int) predicate.Predicate {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(20) {
		case 0:
			return predicate.TruePred
		case 1:
			return predicate.FalsePred
		}
		ops := []predicate.CmpOp{
			predicate.CmpLT, predicate.CmpGT, predicate.CmpLE,
			predicate.CmpGE, predicate.CmpEQ, predicate.CmpNE,
		}
		return predicate.Cmp(ops[g.r.Intn(len(ops))], g.expr(2), g.expr(2))
	}
	switch g.r.Intn(3) {
	case 0:
		return predicate.NewAnd(g.Predicate(depth-1), g.Predicate(depth-1))
	case 1:
		return predicate.NewOr(g.Predicate(depth-1), g.Predicate(depth-1))
	default:
		return &predicate.Not{P: g.Predicate(depth - 1)}
	}
}

// expr returns a random arithmetic expression: mostly linear (sums and
// differences, products with a constant), with division by a constant for
// rational coefficients, the occasional DOUBLE constant, and the
// occasional product of two column-bearing terms.
func (g *Gen) expr(depth int) predicate.Expr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(12) {
		case 0, 1, 2:
			return predicate.IntConst(int64(g.r.Intn(41) - 20))
		case 3:
			return predicate.RealConst(float64(g.r.Intn(161)-80) / 4)
		}
		c := g.schema.Columns()[g.r.Intn(len(g.schema.Columns()))]
		return predicate.Col(c.Name, c.Type)
	}
	switch g.r.Intn(6) {
	case 0, 1:
		return predicate.Add(g.expr(depth-1), g.expr(depth-1))
	case 2:
		return predicate.Sub(g.expr(depth-1), g.expr(depth-1))
	case 3:
		return predicate.Mul(predicate.IntConst(int64(g.r.Intn(7)-3)), g.expr(depth-1))
	case 4:
		return predicate.Div(g.expr(depth-1), predicate.IntConst(int64(g.r.Intn(4)+2)))
	default:
		return predicate.Mul(g.expr(depth-1), g.expr(depth-1))
	}
}
